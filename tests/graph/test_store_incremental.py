"""Incremental GraphStore freezing (O(delta) snapshot derivation).

``GraphStore.graph()`` derives small epochs from the previous snapshot
with :meth:`PropertyGraph.patched` instead of rebuilding from scratch;
these tests pin the reconciliation rules (created+deleted inside one
epoch cancels out, bulk loads force a full rebuild) and that the
incremental snapshot is always *equal* to a full rebuild — node
enumeration order may differ (mutated nodes move to the end), which the
graph's bag semantics permit.
"""

from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore


def _seeded(count=20):
    store = GraphStore()
    nodes = [store.create_node(["N"], {"i": i}) for i in range(count)]
    for left, right in zip(nodes, nodes[1:]):
        store.create_relationship(left.id, "NEXT", right.id)
    store.graph()  # freeze once: the next epoch starts from this base
    return store, nodes


def _rebuilt(store):
    return PropertyGraph.of(
        (store._freeze_node(node_id) for node_id in store._nodes),
        (store._freeze_relationship(rel_id)
         for rel_id in store._relationships),
    )


class TestIncrementalFreeze:
    def test_small_epoch_takes_the_patched_path(self, monkeypatch):
        store, nodes = _seeded()
        calls = []
        original = PropertyGraph.of
        monkeypatch.setattr(
            PropertyGraph, "of",
            staticmethod(lambda *a, **k: calls.append(1) or original(*a, **k)),
        )
        store.set_property(nodes[3], "i", 99)
        snapshot = store.graph()
        assert not calls  # no full rebuild
        assert snapshot.node(nodes[3].id).property("i") == 99

    def test_large_epoch_falls_back_to_full_rebuild(self):
        store, nodes = _seeded(count=4)
        for node in nodes:
            store.set_property(node, "i", -1)
        assert store.graph() == _rebuilt(store)

    def test_incremental_equals_full_rebuild(self):
        store, nodes = _seeded()
        store.set_property(nodes[0], "i", 100)
        store.add_labels(nodes[1], ["Extra"])
        store.delete_relationship(1)
        store.delete_node(nodes[19].id, detach=True)
        assert store.graph() == _rebuilt(store)

    def test_created_then_deleted_in_one_epoch_cancels(self):
        store, _nodes = _seeded()
        doomed = store.create_node(["Ghost"])
        store.delete_node(doomed.id)
        snapshot = store.graph()
        assert doomed.id not in snapshot.nodes
        assert snapshot == _rebuilt(store)

    def test_epoch_state_clears_after_freeze(self):
        store, nodes = _seeded()
        store.set_property(nodes[0], "i", 7)
        store.graph()
        assert not store._touched_nodes and not store._removed_nodes
        assert not store._touched_rels and not store._removed_rels

    def test_load_forces_full_rebuild(self):
        store, nodes = _seeded()
        other = GraphStore()
        extra = other.create_node(["M"])
        store.load(other.graph())
        snapshot = store.graph()
        assert extra.id in snapshot.nodes
        assert snapshot == _rebuilt(store)

    def test_repeated_epochs_stay_consistent(self):
        store, nodes = _seeded()
        for round_no in range(5):
            store.set_property(nodes[round_no], "i", round_no * 10)
            rel = store.create_relationship(
                nodes[round_no].id, "LOOP", nodes[round_no].id
            )
            assert store.graph() == _rebuilt(store)
            store.delete_relationship(rel.id)
            assert store.graph() == _rebuilt(store)
