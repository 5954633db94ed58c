"""Self-loop matching semantics (regression for the ``incident``
docstring/behavior mismatch).

``PropertyGraph.incident`` deduplicates by relationship id, so a
self-loop is yielded exactly once; an undirected pattern therefore
produces one candidate for a self-loop, while a directed pattern
matched in both orientations (outgoing and incoming anchors) sees it
once per direction.
"""

from repro.cypher import run_cypher
from repro.graph.model import Node, PropertyGraph, Relationship


def loop_graph():
    nodes = [
        Node(id=1, labels=frozenset({"Person"}), properties={"name": "Ann"}),
        Node(id=2, labels=frozenset({"Person"}), properties={"name": "Bob"}),
    ]
    rels = [
        Relationship(id=10, type="KNOWS", src=1, trg=1, properties={}),
        Relationship(id=11, type="KNOWS", src=1, trg=2, properties={}),
    ]
    return PropertyGraph.of(nodes, rels)


class TestSelfLoopMatching:
    def test_undirected_expansion_yields_self_loop_once(self):
        graph = loop_graph()
        assert [rel.id for rel, _ in graph.expand_pairs(1, "any", ())] \
            == [10, 11]

    def test_undirected_matches_self_loop_once(self):
        graph = loop_graph()
        table = run_cypher(
            "MATCH (a)-[r:KNOWS]-(b) WHERE id(a) = id(b) "
            "RETURN id(a) AS a, id(r) AS r",
            graph,
        )
        assert [tuple(row.values()) for row in table] == [(1, 10)]

    def test_directed_matches_self_loop_once_per_direction(self):
        graph = loop_graph()
        out = run_cypher(
            "MATCH (a)-[r:KNOWS]->(b) WHERE id(a) = id(b) "
            "RETURN id(r) AS r",
            graph,
        )
        inc = run_cypher(
            "MATCH (a)<-[r:KNOWS]-(b) WHERE id(a) = id(b) "
            "RETURN id(r) AS r",
            graph,
        )
        assert [tuple(row.values()) for row in out] == [(10,)]
        assert [tuple(row.values()) for row in inc] == [(10,)]

    def test_undirected_two_hop_does_not_duplicate_loop(self):
        graph = loop_graph()
        table = run_cypher(
            "MATCH (a)-[r]-(b) RETURN id(a) AS a, id(r) AS r, id(b) AS b",
            graph,
        )
        rows = sorted(tuple(row.values()) for row in table)
        # The self-loop appears once from its node; rel 11 appears once
        # per orientation (two distinct endpoint bindings).
        assert rows == [(1, 10, 1), (1, 11, 2), (2, 11, 1)]
