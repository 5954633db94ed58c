"""Unit tests for the property graph model (Definition 3.1)."""

import pickle

import pytest

from repro.errors import GraphConsistencyError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import NULL


def _pair():
    a = Node(id=1, labels=frozenset({"Person"}), properties={"name": "Alice"})
    b = Node(id=2, labels=frozenset({"Person"}))
    rel = Relationship(id=1, type="KNOWS", src=1, trg=2, properties={"w": 3})
    return a, b, rel


class TestNode:
    def test_property_access_missing_is_null(self):
        node = Node(id=1, properties={"x": 1})
        assert node.property("x") == 1
        assert node.property("missing") is NULL

    def test_labels_frozen(self):
        node = Node(id=1, labels=["A", "B"])
        assert node.labels == frozenset({"A", "B"})
        assert node.has_label("A")
        assert not node.has_label("C")

    def test_identity_equality(self):
        # Nodes compare by identifier (UNA): same id, same entity.
        assert Node(id=1, properties={"x": 1}) == Node(id=1, properties={"x": 2})
        assert Node(id=1) != Node(id=2)

    def test_hashable(self):
        assert len({Node(id=1), Node(id=1), Node(id=2)}) == 2


class TestRelationship:
    def test_property_access(self):
        _, _, rel = _pair()
        assert rel.property("w") == 3
        assert rel.property("nope") is NULL


class TestPropertyGraph:
    def test_of_builds_adjacency(self):
        a, b, rel = _pair()
        graph = PropertyGraph.of([a, b], [rel])
        assert [r.id for r in graph.outgoing(1)] == [1]
        assert [r.id for r in graph.incoming(2)] == [1]
        assert list(graph.outgoing(2)) == []
        assert graph.order == 2 and graph.size == 1

    def test_dangling_endpoint_rejected(self):
        a, _, rel = _pair()
        with pytest.raises(GraphConsistencyError):
            PropertyGraph.of([a], [rel])

    def test_duplicate_node_id_rejected(self):
        conflicting = Node(id=1, labels=["X"])
        a, b, _rel = _pair()
        with pytest.raises(GraphConsistencyError):
            PropertyGraph.of([a, conflicting, b], [])

    def test_duplicate_relationship_id_rejected(self):
        a, b, rel = _pair()
        rel2 = Relationship(id=1, type="OTHER", src=2, trg=1)
        with pytest.raises(GraphConsistencyError):
            PropertyGraph.of([a, b], [rel, rel2])

    def test_undirected_expansion_covers_both_directions(self):
        a, b, rel = _pair()
        back = Relationship(id=2, type="KNOWS", src=2, trg=1)
        graph = PropertyGraph.of([a, b], [rel, back])
        assert [(r.id, n.id) for r, n in graph.expand_pairs(1, "any", ())] \
            == [(1, 2), (2, 2)]

    def test_undirected_expansion_yields_a_self_loop_once(self):
        node = Node(id=1)
        loop = Relationship(id=1, type="SELF", src=1, trg=1)
        graph = PropertyGraph.of([node], [loop])
        assert [r.id for r, _ in graph.expand_pairs(1, "any", ())] == [1]
        assert [r.id for r, _ in graph.expand_pairs(1, "out", ())] == [1]
        assert [r.id for r, _ in graph.expand_pairs(1, "in", ())] == [1]

    def test_nodes_with_labels(self):
        a = Node(id=1, labels={"A", "B"})
        b = Node(id=2, labels={"A"})
        graph = PropertyGraph.of([a, b], [])
        assert {n.id for n in graph.nodes_with_labels(["A"])} == {1, 2}
        assert {n.id for n in graph.nodes_with_labels(["A", "B"])} == {1}
        assert list(graph.nodes_with_labels(["C"])) == []

    def test_contains(self):
        a, b, rel = _pair()
        graph = PropertyGraph.of([a, b], [rel])
        assert a in graph and rel in graph
        assert Node(id=99) not in graph

    def test_empty_graph_singleton_behaviour(self):
        assert PropertyGraph.empty().is_empty()
        assert PropertyGraph.empty() == PropertyGraph.of()

    def test_equality_is_structural(self):
        a, b, rel = _pair()
        g1 = PropertyGraph.of([a, b], [rel])
        g2 = PropertyGraph.of([b, a], [rel])
        assert g1 == g2
        assert hash(g1) == hash(g2)


class TestPath:
    def test_length_and_endpoints(self):
        a, b, rel = _pair()
        path = Path((a, b), (rel,))
        assert path.length == 1
        assert path.start == a and path.end == b

    def test_zero_length_path(self):
        a = Node(id=1)
        path = Path((a,), ())
        assert path.length == 0
        assert path.start == path.end == a

    def test_shape_validation(self):
        a, b, rel = _pair()
        with pytest.raises(GraphConsistencyError):
            Path((a,), (rel,))

    def test_step_must_follow_relationship(self):
        a, b, rel = _pair()
        c = Node(id=3)
        with pytest.raises(GraphConsistencyError):
            Path((a, c), (rel,))

    def test_reversed(self):
        a, b, rel = _pair()
        path = Path((a, b), (rel,))
        rev = path.reversed()
        assert rev.start == b and rev.end == a
        assert rev.reversed() == path

    def test_undirected_traversal_allowed(self):
        # A path may traverse a relationship against its direction.
        a, b, rel = _pair()
        path = Path((b, a), (rel,))
        assert path.length == 1


class TestLabelStats:
    def _graph(self):
        return PropertyGraph.of(
            [
                Node(id=1, labels=("A", "B")),
                Node(id=2, labels=("A",)),
                Node(id=3, labels=()),
            ]
        )

    def test_label_count(self):
        graph = self._graph()
        assert graph.label_count("A") == 2
        assert graph.label_count("B") == 1
        assert graph.label_count("missing") == 0

    def test_label_counts(self):
        assert self._graph().label_counts() == {"A": 2, "B": 1}


def _patched(graph, **change):
    """Copy-then-mutate: ``graph`` stays as it was."""
    return graph._thawed()._apply(**change)


def _orders(graph):
    """Every enumeration order a query evaluation can see."""
    return (
        list(graph.nodes), list(graph.relationships),
        {n: [r.id for r, _ in graph.expand_pairs(n, d, ())]
         for n in graph.nodes for d in ("out", "in", "any")},
        {label: [n.id for n in graph.nodes_with_labels([label])]
         for label in graph.label_counts()},
    )


class TestApply:
    def _base(self):
        return PropertyGraph.of(
            [
                Node(id=1, labels=("A",)),
                Node(id=2, labels=("B",)),
                Node(id=3, labels=("A",)),
            ],
            [
                Relationship(id=1, type="R", src=1, trg=2),
                Relationship(id=2, type="R", src=2, trg=3),
            ],
        )

    def test_equals_rebuilt_graph(self):
        base = self._base()
        patched = _patched(
            base,
            nodes=[Node(id=4, labels=("B",)), Node(id=1, labels=("A",),
                                                   properties={"x": 1})],
            relationships=[Relationship(id=3, type="S", src=3, trg=4)],
            removed_rels=[1],
        )
        rebuilt = PropertyGraph.of(
            [
                Node(id=1, labels=("A",), properties={"x": 1}),
                Node(id=2, labels=("B",)),
                Node(id=3, labels=("A",)),
                Node(id=4, labels=("B",)),
            ],
            [
                Relationship(id=2, type="R", src=2, trg=3),
                Relationship(id=3, type="S", src=3, trg=4),
            ],
        )
        assert patched == rebuilt
        assert patched.label_counts() == rebuilt.label_counts()
        assert sorted(r.id for r, _ in patched.expand_pairs(3, "any", ())) \
            == [2, 3]

    def test_original_graph_unchanged(self):
        base = self._base()
        _patched(base, removed_rels=[1, 2], removed_nodes=[2])
        assert set(base.relationships) == {1, 2}
        assert set(base.nodes) == {1, 2, 3}

    def test_node_removal_updates_label_index(self):
        base = self._base()
        patched = _patched(base, removed_rels=[1, 2], removed_nodes=[3])
        assert patched.label_count("A") == 1
        assert set(patched.nodes) == {1, 2}

    def test_label_change_updates_index(self):
        base = self._base()
        patched = _patched(base, nodes=[Node(id=1, labels=("B",))])
        assert patched.label_count("A") == 1
        assert patched.label_count("B") == 2

    def test_endpoint_change_updates_adjacency(self):
        base = self._base()
        patched = _patched(
            base,
            relationships=[Relationship(id=1, type="R", src=3, trg=2)]
        )
        assert [r.id for r in patched.outgoing(1)] == []
        assert sorted(r.id for r in patched.outgoing(3)) == [1]

    def test_endpoint_change_moves_the_relationship_to_the_end(self):
        """An endpoint-changing upsert moves the relationship to the end of
        ``relationships`` as well as of its adjacency, so a pickled copy
        (rebuilt from ``relationships`` order) expands in the same order."""
        graph = PropertyGraph.of(
            [Node(id=i) for i in (1, 2, 3)],
            [Relationship(id=10, type="T", src=1, trg=2),
             Relationship(id=11, type="T", src=1, trg=3),
             Relationship(id=12, type="T", src=1, trg=2)],
        )
        moved = _patched(
            graph,
            relationships=[Relationship(id=10, type="T", src=1, trg=3)]
        )
        clone = pickle.loads(pickle.dumps(moved))
        for copy in (moved, clone):
            assert [rel.id for rel, _ in copy.expand_pairs(1, "out", ())] \
                == [11, 12, 10]
            assert [rel.id for rel in copy.incoming(3)] == [11, 10]
        assert list(moved.relationships) == [11, 12, 10]

    def test_failed_patch_leaves_both_graphs_as_they_were(self):
        base = self._base()
        with pytest.raises(GraphConsistencyError):
            _patched(
                base,
                nodes=[Node(id=4)],
                removed_rels=[1],
                relationships=[Relationship(id=9, type="R", src=1, trg=99)],
            )
        live = base._thawed()
        with pytest.raises(GraphConsistencyError):
            live._apply(nodes=[Node(id=4)], removed_rels=[1],
                        removed_nodes=[2])
        for graph in (base, live):
            assert graph == self._base()
            assert [r.id for r in graph.outgoing(1)] == [1]
            assert list(graph.nodes) == [1, 2, 3]

    def test_remove_node_with_live_relationship_raises(self):
        with pytest.raises(GraphConsistencyError):
            _patched(self._base(), removed_nodes=[2])

    def test_upsert_rel_with_dangling_endpoint_raises(self):
        with pytest.raises(GraphConsistencyError):
            _patched(
                self._base(),
                relationships=[Relationship(id=9, type="R", src=1, trg=99)]
            )

    def test_remove_unknown_entities_raise(self):
        with pytest.raises(GraphConsistencyError):
            _patched(self._base(), removed_nodes=[42])
        with pytest.raises(GraphConsistencyError):
            _patched(self._base(), removed_rels=[42])


class TestApplyMovesRelationshipsOffLeavingNodes:
    """A relationship may re-arrive on new endpoints in the same change
    that removes its old endpoint node; the result must enumerate as a
    rebuild from its own collections would."""

    @staticmethod
    def _assert_rebuild_orders(graph):
        rebuilt = PropertyGraph.of(
            graph.nodes.values(), graph.relationships.values()
        )
        assert _orders(graph) == _orders(rebuilt)
        assert graph.label_counts() == rebuilt.label_counts()

    def test_self_loop_moves_onto_a_remaining_node(self):
        graph = PropertyGraph.of(
            [Node(id=1), Node(id=2, labels=("B",))],
            [Relationship(id=1, type="R", src=2, trg=2)],
        )._thawed()
        graph._apply(
            relationships=[Relationship(id=1, type="R", src=1, trg=1)],
            removed_nodes=[2],
        )
        assert list(graph.nodes) == [1]
        assert (graph.relationship(1).src, graph.relationship(1).trg) \
            == (1, 1)
        assert graph.label_count("B") == 0
        self._assert_rebuild_orders(graph)

    def test_relationship_keeps_its_other_endpoint(self):
        graph = PropertyGraph.of(
            [Node(id=i, labels=("A",)) for i in (1, 2, 3)],
            [Relationship(id=1, type="R", src=1, trg=2),
             Relationship(id=2, type="R", src=2, trg=3),
             Relationship(id=3, type="R", src=3, trg=1)],
        )._thawed()
        graph._apply(
            relationships=[Relationship(id=1, type="R", src=1, trg=3)],
            removed_nodes=[2],
            removed_rels=[2],
        )
        assert list(graph.relationships) == [3, 1]
        assert [r.id for r in graph.incoming(3)] == [1]
        assert [r.id for r, _ in graph.expand_pairs(1, "any", ())] == [1, 3]
        self._assert_rebuild_orders(graph)

    def test_moving_onto_the_leaving_node_still_raises(self):
        base = PropertyGraph.of(
            [Node(id=1), Node(id=2)],
            [Relationship(id=1, type="R", src=2, trg=2)],
        )
        graph = base._thawed()
        with pytest.raises(GraphConsistencyError, match="dangl"):
            graph._apply(
                relationships=[Relationship(id=1, type="R", src=1, trg=2)],
                removed_nodes=[2],
            )
        assert graph == base and _orders(graph) == _orders(base)

    def test_a_removed_and_upserted_node_is_an_upsert(self):
        graph = PropertyGraph.of(
            [Node(id=1), Node(id=2, labels=("B",)), Node(id=3)],
            [Relationship(id=1, type="R", src=1, trg=2),
             Relationship(id=2, type="R", src=2, trg=3)],
        )._thawed()
        graph._apply(nodes=[Node(id=2, labels=("C",))], removed_nodes=[2])
        assert list(graph.nodes) == [1, 3, 2]
        assert list(graph.relationships) == [1, 2]
        assert graph.label_counts() == {"C": 1}
        self._assert_rebuild_orders(graph)


def _people_graph():
    return PropertyGraph.of(
        [
            Node(id=1, labels=("Person",), properties={"name": "Ann"}),
            Node(id=2, labels=("Person",), properties={"name": "Bob"}),
            Node(id=3, labels=("Person", "Admin"), properties={"name": "Cal"}),
            Node(id=4, labels=("City",), properties={"name": "Ann"}),
        ],
        [
            Relationship(id=1, type="KNOWS", src=1, trg=2),
            Relationship(id=2, type="KNOWS", src=2, trg=3),
            Relationship(id=3, type="VISITS", src=3, trg=4),
        ],
    )


class TestGlobalNodeOrder:
    """Every upserted node moves to the end of ``nodes`` and of each of
    its label buckets, so every scan enumerates in the order a rebuild
    (and a pickle round trip) has."""

    def test_upsert_moves_node_to_end_of_all_orders(self):
        patched = _patched(
            _people_graph(),
            nodes=[Node(id=1, labels=("Person",), properties={"age": 31})]
        )
        assert list(patched.nodes) == [2, 3, 4, 1]
        assert [n.id for n in patched.nodes_with_labels(["Person"])] \
            == [2, 3, 1]

    def test_pickle_roundtrip_preserves_order(self):
        graph = _patched(
            _people_graph(),
            nodes=[Node(id=2, labels=("Person",), properties={"name": "B"})]
        )
        clone = pickle.loads(pickle.dumps(graph))
        assert list(clone.nodes) == list(graph.nodes) == [1, 3, 4, 2]
        assert [n.id for n in clone.nodes_with_labels(["Person"])] \
            == [n.id for n in graph.nodes_with_labels(["Person"])]


class TestRetype:
    def test_a_retyped_relationship_expands_under_its_new_type(self):
        """An upsert that changes only a relationship's type keeps its
        place in every order, and typed expansion sees the new type."""
        patched = _patched(
            _people_graph(),
            relationships=[Relationship(id=1, type="LIKES", src=1, trg=2)],
        )
        assert list(patched.relationships) == [1, 2, 3]
        assert [r.id for r, _ in patched.expand_pairs(1, "out", ("LIKES",))] \
            == [1]
        assert list(patched.expand_pairs(1, "out", ("KNOWS",))) == []
        assert [r.id for r, _ in patched.expand_pairs(2, "any", ("KNOWS",))] \
            == [2]
