"""Regression tests for the graph-store bugfix sweep.

Each class pins one fixed defect: generator-consuming iterable
parameters, O(R)-scan DETACH DELETE, and cache-dirtying no-op SETs.
"""

from types import MappingProxyType

import pytest

from repro.errors import GraphConsistencyError
from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore


class TestIterableParamsConsumedOnce:
    def test_create_node_with_generator_labels(self):
        store = GraphStore()
        node = store.create_node(label for label in ["Person", "Admin"])
        # The returned entity and the stored state must both carry the
        # labels: a generator consumed twice leaves one of them empty.
        assert node.labels == frozenset({"Person", "Admin"})
        stored = store.graph().node(node.id)
        assert stored.labels == frozenset({"Person", "Admin"})

    def test_add_and_remove_labels_with_generators(self):
        store = GraphStore()
        node = store.create_node(["A"])
        store.add_labels(node, (label for label in ["B", "C"]))
        assert store.graph().node(node.id).labels == frozenset("ABC")
        store.remove_labels(node, (label for label in ["A", "B"]))
        assert store.graph().node(node.id).labels == frozenset("C")

    def test_map_iterables_consumed_once(self):
        store = GraphStore()
        node = store.create_node([], {"x": 1})
        store.set_properties_from_map(
            node, dict([("y", 2)]), replace=False
        )
        props = dict(store.graph().node(node.id).properties)
        assert props == {"x": 1, "y": 2}


class _ScanTrap(dict):
    """A relationship map that forbids whole-table scans."""

    def __iter__(self):
        raise AssertionError("full relationship scan during delete")

    def keys(self):
        raise AssertionError("full relationship scan during delete")

    def items(self):
        raise AssertionError("full relationship scan during delete")

    def values(self):
        raise AssertionError("full relationship scan during delete")


def _trap_relationship_scans(store):
    """Swap the store's live graph for an equal one whose relationship
    map trips on iteration; key lookups and deletes stay legal."""
    live = list(store._graph._live)
    live[1] = _ScanTrap(live[1])
    store._graph = PropertyGraph(*map(MappingProxyType, live),
                                 _live=tuple(live))


class TestDetachDeleteUsesAdjacency:
    def _star(self, spokes=50):
        store = GraphStore()
        hub = store.create_node(["Hub"])
        for _ in range(spokes):
            spoke = store.create_node(["Spoke"])
            store.create_relationship(hub.id, "R", spoke.id)
        return store, hub

    def test_detach_does_not_scan_relationships(self):
        store, hub = self._star()
        store.create_relationship(hub.id, "SELF", hub.id)
        bystander = store.create_node()
        kept = store.create_relationship(bystander.id, "R", bystander.id)
        _trap_relationship_scans(store)
        store.delete_node(hub.id, detach=True)
        assert not store.has_node(hub.id)
        assert store.size == 1 and store.has_relationship(kept.id)

    def test_plain_delete_error_does_not_scan(self):
        store, hub = self._star(spokes=3)
        _trap_relationship_scans(store)
        with pytest.raises(GraphConsistencyError, match="3 relationship"):
            store.delete_node(hub.id)

    def test_trap_catches_a_scan(self):
        store, _hub = self._star(spokes=1)
        _trap_relationship_scans(store)
        with pytest.raises(AssertionError, match="full relationship scan"):
            store.graph()

    def test_deleted_relationships_leave_the_adjacency(self):
        store, hub = self._star(spokes=2)
        rel_ids = [rel.id for rel in store.graph().outgoing(hub.id)]
        store.delete_relationship(rel_ids[0])
        store.delete_relationship(rel_ids[1])
        # Emptied buckets are dropped, so the node deletes plainly.
        store.delete_node(hub.id)
        assert not store.has_node(hub.id)

    def test_self_loop_detach(self):
        store = GraphStore()
        node = store.create_node()
        store.create_relationship(node.id, "SELF", node.id)
        store.delete_node(node.id, detach=True)
        assert store.order == 0 and store.size == 0


class TestNoOpSetKeepsCache:
    def test_identical_value_keeps_cached_graph(self):
        store = GraphStore()
        node = store.create_node([], {"x": 1, "name": "Ann"})
        frozen = store.graph()
        store.set_property(node, "x", 1)
        store.set_property(node, "name", "Ann")
        assert store.graph() is frozen

    def test_removing_absent_key_keeps_cached_graph(self):
        from repro.graph.values import NULL

        store = GraphStore()
        node = store.create_node([], {"x": 1})
        frozen = store.graph()
        store.set_property(node, "nope", NULL)
        store.remove_property(node, "also_nope")
        assert store.graph() is frozen

    def test_type_exact_identity(self):
        # 1 == 1.0 == True in Python; a SET that changes the stored
        # type is observable (Cypher type predicates) and must dirty.
        store = GraphStore()
        node = store.create_node([], {"x": 1})
        frozen = store.graph()
        store.set_property(node, "x", 1.0)
        assert store.graph() is not frozen
        assert type(store.graph().node(node.id).property("x")) is float
        frozen = store.graph()
        store.set_property(node, "x", True)
        assert store.graph() is not frozen

    def test_nan_always_dirties(self):
        nan = float("nan")
        store = GraphStore()
        node = store.create_node([], {"x": nan})
        frozen = store.graph()
        store.set_property(node, "x", float("nan"))
        assert store.graph() is not frozen

    def test_changed_value_still_applies(self):
        store = GraphStore()
        node = store.create_node([], {"x": 1})
        frozen = store.graph()
        store.set_property(node, "x", 2)
        updated = store.graph()
        assert updated is not frozen
        assert updated.node(node.id).property("x") == 2

    def test_relationship_no_op_set(self):
        store = GraphStore()
        a = store.create_node()
        b = store.create_node()
        rel = store.create_relationship(a.id, "R", b.id, {"w": 1})
        frozen = store.graph()
        store.set_property(rel, "w", 1)
        assert store.graph() is frozen
