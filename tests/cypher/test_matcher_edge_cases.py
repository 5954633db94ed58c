"""Matcher edge cases: bound path/relationship-list variables, parallel
edges, self-loops, zero-length paths against labels."""

import pytest

from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.matcher import PatternMatcher
from repro.cypher.parser import CypherParser
from repro.cypher import run_cypher
from repro.graph.builder import GraphBuilder
from repro.graph.model import Path


def pattern_of(text):
    return CypherParser(text).parse_pattern()


def matches(graph, text, scope=None):
    matcher = PatternMatcher(graph, ExpressionEvaluator(graph))
    return list(matcher.match_pattern(pattern_of(text), scope or {}))


@pytest.fixture
def multigraph():
    """Parallel edges and a self-loop.

    a -R{w:1}-> b ; a -R{w:2}-> b ; b -R-> b (self-loop)
    """
    builder = GraphBuilder()
    a = builder.add_node(["N"], {"name": "a"}, node_id=1)
    b = builder.add_node(["N"], {"name": "b"}, node_id=2)
    builder.add_relationship(a, "R", b, {"w": 1}, rel_id=1)
    builder.add_relationship(a, "R", b, {"w": 2}, rel_id=2)
    builder.add_relationship(b, "R", b, {"w": 3}, rel_id=3)
    return builder.build()


class TestParallelEdges:
    def test_each_parallel_edge_is_a_match(self, multigraph):
        rows = matches(multigraph, "(a {name:'a'})-[r:R]->(b {name:'b'})")
        assert sorted(row["r"].property("w") for row in rows) == [1, 2]

    def test_two_hop_through_parallel_edges(self, multigraph):
        # a->b then b->b: each parallel first hop combines with the loop.
        rows = matches(multigraph, "(a {name:'a'})-[:R]->()-[:R]->(c)")
        assert len(rows) == 2

    def test_parallel_edges_in_var_length(self, multigraph):
        rows = matches(multigraph, "(a {name:'a'})-[:R*2..2]->(c)")
        assert len(rows) == 2


class TestSelfLoops:
    def test_self_loop_single_hop(self, multigraph):
        rows = matches(multigraph, "(b {name:'b'})-[r:R]->(b2 {name:'b'})")
        assert len(rows) == 1
        assert rows[0]["r"].id == 3

    def test_self_loop_undirected_not_double_counted(self, multigraph):
        rows = matches(multigraph, "(b {name:'b'})-[r:R {w: 3}]-(x)")
        assert len(rows) == 1

    def test_self_loop_in_query(self, multigraph):
        table = run_cypher(
            "MATCH (n)-[r]->(n) RETURN count(r) AS loops", multigraph
        )
        assert table.records[0]["loops"] == 1


class TestBoundCompositeVariables:
    def test_bound_path_variable_checks_consistency(self, multigraph):
        first = matches(multigraph, "p = (a {name:'a'})-[:R {w:1}]->(b)")
        path = first[0]["p"]
        assert isinstance(path, Path)
        # Re-matching with p bound: only the identical embedding survives.
        rows = matches(multigraph, "p = (x)-[:R]->(y)", scope={"p": path})
        assert len(rows) == 1
        assert rows[0]["x"].id == 1 and rows[0]["y"].id == 2

    @pytest.mark.parametrize("text, names", [
        ("p = (x)-[:R]->(y)-[:R]->(z)", ["x", "y", "z"]),
        ("(a)-[r:S]->(b), p = (x)-[:R]->(y)-[:R]->(z)", ["a", "x"]),
    ])
    def test_a_failed_bound_path_frees_its_relationships(self, text, names):
        # A -R-> B and X -R-> B, both into B -R-> C, with A enumerated
        # before X: A's attempt at the bound path X->B->C fails after
        # taking B->C, which must still be free for X's.
        builder = GraphBuilder()
        a = builder.add_node(["N"], {"name": "A"}, node_id=1)
        x = builder.add_node(["N"], {"name": "X"}, node_id=2)
        b = builder.add_node(["N"], {"name": "B"}, node_id=3)
        c = builder.add_node(["N"], {"name": "C"}, node_id=4)
        builder.add_relationship(a, "R", b, rel_id=1)
        builder.add_relationship(x, "R", b, rel_id=2)
        builder.add_relationship(b, "R", c, rel_id=3)
        builder.add_relationship(c, "S", a, rel_id=4)
        graph = builder.build()
        [bound] = [
            row["p"] for row in matches(graph, "p = (x)-[:R]->(y)-[:R]->(z)")
            if row["x"].id == 2
        ]
        rows = matches(graph, text, scope={"p": bound})
        assert [[row[name].id for name in names] for row in rows] == [
            [2, 3, 4] if names == ["x", "y", "z"] else [4, 2]
        ]

    def test_bound_relationship_list_checks_sequence(self, multigraph):
        first = matches(multigraph, "(a {name:'a'})-[rs:R*2..2]->(c)")
        bound = first[0]["rs"]
        rows = matches(
            multigraph, "(x)-[rs:R*2..2]->(y)", scope={"rs": bound}
        )
        assert len(rows) == 1
        assert [rel.id for rel in rows[0]["rs"]] \
            if "rs" in rows[0] else True

    def test_bound_relationship_variable_single_hop(self, multigraph):
        rel = multigraph.relationship(2)
        rows = matches(multigraph, "(x)-[r:R]->(y)", scope={"r": rel})
        assert len(rows) == 1
        assert rows[0]["x"].id == 1


class TestZeroLengthWithLabels:
    def test_zero_length_requires_end_label_on_start(self):
        builder = GraphBuilder()
        a = builder.add_node(["A"], {}, node_id=1)
        b = builder.add_node(["B"], {}, node_id=2)
        builder.add_relationship(a, "R", b, rel_id=1)
        graph = builder.build()
        # (x:A)-[*0..1]->(y:B): zero-length needs x to be a B too (it
        # isn't), so only the 1-hop match survives.
        rows = matches(graph, "(x:A)-[*0..1]->(y:B)")
        assert len(rows) == 1
        assert rows[0]["y"].id == 2

    def test_zero_length_same_variable_both_ends(self):
        builder = GraphBuilder()
        builder.add_node(["A"], {}, node_id=1)
        graph = builder.build()
        rows = matches(graph, "(x:A)-[*0..0]->(x)")
        assert len(rows) == 1


class TestAnonymousEverything:
    def test_fully_anonymous_pattern(self, multigraph):
        rows = matches(multigraph, "()-[]->()")
        assert len(rows) == 3
        assert all(row == {} for row in rows)  # nothing to bind

    def test_count_star_over_anonymous(self, multigraph):
        table = run_cypher("MATCH ()-->() RETURN count(*) AS n", multigraph)
        assert table.records[0]["n"] == 3
