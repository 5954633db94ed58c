"""GraphStore snapshots: one live graph, every write through its mutator.

``GraphStore.graph()`` copies the live graph the writes go to, so every
snapshot must hold exactly the store's state at that point, enumerate as
a rebuild from its own collections would, and stay as it was after later
writes.
"""

from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore


def _seeded(count=20):
    store = GraphStore()
    nodes = [store.create_node(["N"], {"i": i}) for i in range(count)]
    for left, right in zip(nodes, nodes[1:]):
        store.create_relationship(left.id, "NEXT", right.id)
    store.graph()
    return store, nodes


def _orders(graph):
    return (
        list(graph.nodes), list(graph.relationships),
        {n: [r.id for r, _ in graph.expand_pairs(n, d, ())]
         for n in graph.nodes for d in ("out", "in", "any")},
        {label: [n.id for n in graph.nodes_with_labels([label])]
         for label in graph.label_counts()},
        graph.label_counts(),
    )


def assert_rebuild_orders(graph):
    """``graph`` enumerates as a rebuild from its own collections."""
    rebuilt = PropertyGraph.of(graph.nodes.values(),
                               graph.relationships.values())
    assert graph == rebuilt
    assert _orders(graph) == _orders(rebuilt)


class TestStoreSnapshots:
    def test_a_property_write_moves_the_node_to_the_end(self):
        store, nodes = _seeded()
        store.set_property(nodes[3], "i", 99)
        snapshot = store.graph()
        assert snapshot.node(nodes[3].id).property("i") == 99
        assert list(snapshot.nodes)[-1] == nodes[3].id
        assert_rebuild_orders(snapshot)

    def test_writing_every_node_keeps_the_orders(self):
        store, nodes = _seeded(count=4)
        for node in nodes:
            store.set_property(node, "i", -1)
        snapshot = store.graph()
        assert [n.property("i") for n in snapshot.nodes.values()] == [-1] * 4
        assert_rebuild_orders(snapshot)

    def test_mixed_writes(self):
        store, nodes = _seeded()
        store.set_property(nodes[0], "i", 100)
        store.add_labels(nodes[1], ["Extra"])
        store.delete_relationship(1)
        store.delete_node(nodes[19].id, detach=True)
        snapshot = store.graph()
        assert 1 not in snapshot.relationships
        assert nodes[19].id not in snapshot.nodes
        assert snapshot.label_count("Extra") == 1
        assert (snapshot.order, snapshot.size) == (19, 17)
        assert_rebuild_orders(snapshot)

    def test_created_then_deleted_between_snapshots_leaves_no_trace(self):
        store, _nodes = _seeded()
        before = store.graph()
        doomed = store.create_node(["Ghost"])
        store.delete_node(doomed.id)
        snapshot = store.graph()
        assert doomed.id not in snapshot.nodes
        assert snapshot.label_count("Ghost") == 0
        assert _orders(snapshot) == _orders(before)

    def test_load_keeps_existing_state(self):
        store, _nodes = _seeded()
        other = GraphStore()
        extra = other.create_node(["M"])
        store.load(other.graph())
        snapshot = store.graph()
        assert extra.id in snapshot.nodes
        assert snapshot.order == 20 and snapshot.size == 19
        assert_rebuild_orders(snapshot)

    def test_repeated_writes_stay_consistent(self):
        store, nodes = _seeded()
        for round_no in range(5):
            store.set_property(nodes[round_no], "i", round_no * 10)
            rel = store.create_relationship(
                nodes[round_no].id, "LOOP", nodes[round_no].id
            )
            assert_rebuild_orders(store.graph())
            store.delete_relationship(rel.id)
            assert_rebuild_orders(store.graph())

    def test_snapshots_persist_across_writes(self):
        store, nodes = _seeded(count=3)
        first = store.graph()
        kept = _orders(first)
        store.set_property(nodes[0], "i", 7)
        store.add_labels(nodes[1], ["Extra"])
        store.delete_node(nodes[2].id, detach=True)
        store.create_relationship(nodes[0].id, "NEXT", nodes[0].id)
        assert store.graph() is not first
        assert _orders(first) == kept
        assert first.node(nodes[0].id).property("i") == 0
