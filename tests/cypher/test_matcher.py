"""Unit tests for pattern matching semantics (Section 3.2)."""

import pytest

from repro.cypher import ast
from repro.cypher.evaluator import QueryEvaluator, run_cypher
from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.matcher import PatternMatcher
from repro.cypher.parser import CypherParser
from repro.graph.builder import GraphBuilder
from repro.graph.model import Node, Path, PropertyGraph, Relationship


def pattern_of(text):
    return CypherParser(text).parse_pattern()


def matcher_for(graph):
    return PatternMatcher(graph, ExpressionEvaluator(graph))


def matches(graph, text, scope=None):
    return list(matcher_for(graph).match_pattern(pattern_of(text), scope or {}))


@pytest.fixture
def triangle():
    """a -R-> b -R-> c -R-> a, plus a -S-> b."""
    builder = GraphBuilder()
    a = builder.add_node(["N"], {"name": "a"}, node_id=1)
    b = builder.add_node(["N"], {"name": "b"}, node_id=2)
    c = builder.add_node(["N"], {"name": "c"}, node_id=3)
    builder.add_relationship(a, "R", b, rel_id=1)
    builder.add_relationship(b, "R", c, rel_id=2)
    builder.add_relationship(c, "R", a, rel_id=3)
    builder.add_relationship(a, "S", b, rel_id=4)
    return builder.build()


class TestNodeMatching:
    def test_all_nodes(self, triangle):
        assert len(matches(triangle, "(n)")) == 3

    def test_label_filter(self, social_graph):
        assert len(matches(social_graph, "(n:Person)")) == 3
        assert len(matches(social_graph, "(n:City)")) == 2
        assert len(matches(social_graph, "(n:Nope)")) == 0

    def test_property_filter(self, social_graph):
        found = matches(social_graph, "(n {name: 'Alice'})")
        assert len(found) == 1 and found[0]["n"].id == 1

    def test_bound_variable_restricts(self, social_graph):
        alice = social_graph.node(1)
        found = matches(social_graph, "(n:Person)", scope={"n": alice})
        assert found == [{}]  # no new bindings; just a consistency check

    def test_bound_variable_label_mismatch(self, social_graph):
        leipzig = social_graph.node(4)
        assert matches(social_graph, "(n:Person)", scope={"n": leipzig}) == []


class TestRelationshipMatching:
    def test_directed_out(self, triangle):
        found = matches(triangle, "(a {name:'a'})-[r:R]->(b)")
        assert [m["b"].property("name") for m in found] == ["b"]

    def test_directed_in(self, triangle):
        found = matches(triangle, "(a {name:'a'})<-[r:R]-(b)")
        assert [m["b"].property("name") for m in found] == ["c"]

    def test_undirected(self, triangle):
        found = matches(triangle, "(a {name:'a'})-[r:R]-(b)")
        assert sorted(m["b"].property("name") for m in found) == ["b", "c"]

    def test_type_filter(self, triangle):
        assert len(matches(triangle, "(a)-[r:S]->(b)")) == 1
        assert len(matches(triangle, "(a)-[r:R|S]->(b)")) == 4

    def test_relationship_property_filter(self, social_graph):
        found = matches(social_graph, "()-[r:KNOWS {since: 2015}]->()")
        assert len(found) == 1 and found[0]["r"].id == 1

    def test_anonymous_relationship(self, triangle):
        assert len(matches(triangle, "(a)-->(b)")) == 4

    def test_bag_semantics_duplicate_embeddings(self, triangle):
        # Two parallel edges a->b (R and S) give two rows for (a)-->(b).
        rows = matches(triangle, "(x {name:'a'})-->(y {name:'b'})")
        assert len(rows) == 2


class TestRelationshipUniqueness:
    def test_same_rel_not_reused_within_pattern(self, triangle):
        # (a)-[r1]->(b)-[r2]->(c): r1 and r2 must differ; the triangle has
        # 3 R-R chains + S-R chain(s).
        rows = matches(triangle, "(a)-[r1:R]->(b)-[r2:R]->(c)")
        assert len(rows) == 3
        for row in rows:
            assert row["r1"].id != row["r2"].id

    def test_across_comma_separated_paths(self, triangle):
        rows = matches(triangle, "(a {name:'a'})-[r1:S]->(b), (a)-[r2:S]->(b)")
        assert rows == []  # only one S edge exists; uniqueness forbids reuse

    def test_node_repetition_allowed(self, triangle):
        # Cycles revisit nodes: a->b->c->a is a valid 3-hop chain.
        rows = matches(triangle, "(a {name:'a'})-[:R]->()-[:R]->()-[:R]->(z)")
        assert len(rows) == 1
        assert rows[0]["z"].property("name") == "a"


class TestVarLength:
    def test_bounds(self, triangle):
        assert len(matches(triangle, "(a {name:'a'})-[:R*1..1]->(b)")) == 1
        assert len(matches(triangle, "(a {name:'a'})-[:R*1..2]->(b)")) == 2
        assert len(matches(triangle, "(a {name:'a'})-[:R*3..3]->(b)")) == 1

    def test_unbounded_finite_due_to_uniqueness(self, triangle):
        rows = matches(triangle, "(a {name:'a'})-[:R*]->(b)")
        assert len(rows) == 3  # lengths 1, 2, 3 — then edges exhausted

    def test_zero_length(self, triangle):
        rows = matches(triangle, "(a {name:'a'})-[:R*0..1]->(b)")
        # zero-length (b = a itself) + one-length (b = 'b')
        names = sorted(row["b"].property("name") for row in rows)
        assert names == ["a", "b"]

    def test_variable_binds_relationship_list(self, triangle):
        rows = matches(triangle, "(a {name:'a'})-[rs:R*2..2]->(b)")
        assert len(rows) == 1
        assert [rel.id for rel in rows[0]["rs"]] == [1, 2]

    def test_exact_length_syntax(self, triangle):
        assert len(matches(triangle, "(a {name:'a'})-[:R*2]->(b)")) == 1

    def test_undirected_var_length(self, social_graph):
        rows = matches(social_graph, "(a {name:'Bob'})-[:KNOWS*2..2]-(z)")
        # Bob-Alice-Carol and Bob-Carol-Alice.
        names = sorted(row["z"].property("name") for row in rows)
        assert names == ["Alice", "Carol"]


class TestPathBinding:
    def test_path_variable(self, triangle):
        rows = matches(triangle, "p = (a {name:'a'})-[:R*2..2]->(b)")
        assert len(rows) == 1
        path = rows[0]["p"]
        assert isinstance(path, Path)
        assert path.length == 2
        assert [node.id for node in path.nodes] == [1, 2, 3]

    def test_path_contains_intermediate_nodes(self, triangle):
        rows = matches(triangle, "p = (a {name:'a'})-[:R*3..3]->(b)")
        assert [node.id for node in rows[0]["p"].nodes] == [1, 2, 3, 1]


class TestShortestPath:
    def test_shortest_path_basic(self, social_graph):
        rows = matches(
            social_graph,
            "p = shortestPath((a {name:'Alice'})-[:KNOWS*..5]->(c {name:'Carol'}))",
        )
        assert len(rows) == 1
        assert rows[0]["p"].length == 1  # the direct Alice->Carol edge

    def test_all_shortest_paths(self):
        # Diamond: s -> m1 -> t and s -> m2 -> t: two shortest paths.
        builder = GraphBuilder()
        s = builder.add_node(["X"], {"name": "s"}, node_id=1)
        m1 = builder.add_node([], {}, node_id=2)
        m2 = builder.add_node([], {}, node_id=3)
        t = builder.add_node(["X"], {"name": "t"}, node_id=4)
        builder.add_relationship(s, "R", m1, rel_id=1)
        builder.add_relationship(s, "R", m2, rel_id=2)
        builder.add_relationship(m1, "R", t, rel_id=3)
        builder.add_relationship(m2, "R", t, rel_id=4)
        graph = builder.build()
        rows = matches(
            graph,
            "p = allShortestPaths((a {name:'s'})-[:R*]->(b {name:'t'}))",
        )
        assert len(rows) == 2
        assert all(row["p"].length == 2 for row in rows)

    def test_no_path(self, social_graph):
        rows = matches(
            social_graph,
            "p = shortestPath((a {name:'Carol'})-[:KNOWS*..5]->(b {name:'Alice'}))",
        )
        assert rows == []  # KNOWS edges all point away from Carol

    def test_respects_max_bound(self, triangle):
        rows = matches(
            triangle,
            "p = shortestPath((a {name:'a'})-[:R*..1]->(c {name:'c'}))",
        )
        assert rows == []  # c is 2 hops away

    @pytest.fixture
    def chain_with_shortcut(self):
        """a -R-> b -R-> c -R-> d, plus the direct shortcut a -R-> d."""
        builder = GraphBuilder()
        a = builder.add_node(["N"], {"name": "a"}, node_id=1)
        b = builder.add_node(["N"], {"name": "b"}, node_id=2)
        c = builder.add_node(["N"], {"name": "c"}, node_id=3)
        d = builder.add_node(["N"], {"name": "d"}, node_id=4)
        builder.add_relationship(a, "R", b, rel_id=1)
        builder.add_relationship(b, "R", c, rel_id=2)
        builder.add_relationship(c, "R", d, rel_id=3)
        builder.add_relationship(a, "R", d, rel_id=4)
        return builder.build()

    def test_lower_bound_beyond_shortest_distance(self, chain_with_shortcut):
        # Regression: the target is 1 hop away, but the pattern demands at
        # least 3 — BFS must keep exploring past the early sub-low visit
        # of the target instead of returning no match.
        rows = matches(
            chain_with_shortcut,
            "p = shortestPath((a {name:'a'})-[:R*3..]->(d {name:'d'}))",
        )
        assert len(rows) == 1
        assert rows[0]["p"].length == 3

    def test_all_shortest_paths_with_lower_bound(self, chain_with_shortcut):
        rows = matches(
            chain_with_shortcut,
            "p = allShortestPaths((a {name:'a'})-[:R*2..]->(d {name:'d'}))",
        )
        # Shortest admissible length is 3 (the chain); the 1-hop shortcut
        # is below the bound and there is no 2-hop walk.
        assert [row["p"].length for row in rows] == [3]

    def test_lower_bound_with_both_bounds(self, chain_with_shortcut):
        rows = matches(
            chain_with_shortcut,
            "p = shortestPath((a {name:'a'})-[:R*2..3]->(d {name:'d'}))",
        )
        assert len(rows) == 1
        assert rows[0]["p"].length == 3

    def test_lower_bound_cycle_back_to_start(self, triangle):
        # A cycle a->b->c->a: the start node is its own target at depth 3.
        rows = matches(
            triangle,
            "p = shortestPath((a {name:'a'})-[:R*1..]->(b {name:'a'}))",
        )
        assert len(rows) == 1
        assert rows[0]["p"].length == 3

    def test_lower_bound_still_unreachable(self, chain_with_shortcut):
        # No walk of length ≥ 5 exists (only 4 relationships, trails
        # cannot repeat one) — must terminate and return no match.
        rows = matches(
            chain_with_shortcut,
            "p = shortestPath((a {name:'a'})-[:R*5..]->(d {name:'d'}))",
        )
        assert rows == []


class TestShortestPathSetAtATime:
    """The contract the set-at-a-time operator keeps: one regression per
    rule, on a graph where the search is rooted at the end side (two
    starts, one end) so that both orientations are exercised."""

    @pytest.fixture
    def funnel(self):
        """s1, s2 (:S) reach t (:T) through m1, m2; relationship ids make
        the smallest sequence differ between the two orientations:
        s1-m1-t is (1, 4) as written but (4, 1) from t, s1-m2-t is (2, 3)
        as written but (3, 2) from t."""
        builder = GraphBuilder()
        s1 = builder.add_node(["S"], {"name": "s1"}, node_id=1)
        s2 = builder.add_node(["S"], {"name": "s2"}, node_id=2)
        m1 = builder.add_node(["M"], {"name": "m1"}, node_id=3)
        m2 = builder.add_node(["M"], {"name": "m2"}, node_id=4)
        t = builder.add_node(["T"], {"name": "t"}, node_id=5)
        builder.add_relationship(s1, "R", m1, {"via": "m1"}, rel_id=1)
        builder.add_relationship(s1, "R", m2, {"via": "m2"}, rel_id=2)
        builder.add_relationship(m2, "R", t, {"via": "m2"}, rel_id=3)
        builder.add_relationship(m1, "R", t, {"via": "m1"}, rel_id=4)
        builder.add_relationship(s2, "R", m1, {"via": "m1"}, rel_id=5)
        builder.add_node(["S", "T"], {"name": "lonely"}, node_id=6)
        return builder.build()

    @staticmethod
    def summary(rows):
        return [
            (row["a"].property("name"), row["b"].property("name"),
             [rel.id for rel in row["p"].relationships])
            for row in rows
        ]

    def test_pick_is_smallest_sequence_as_written_when_rooted_at_end(self, funnel):
        rows = matches(funnel, "p = shortestPath((a:S)-[:R*]->(b:T {name:'t'}))")
        assert self.summary(rows) == [("s1", "t", [1, 4]), ("s2", "t", [5, 4])]

    def test_all_shortest_paths_in_that_order(self, funnel):
        rows = matches(
            funnel, "p = allShortestPaths((a:S)-[:R*]-(b:T {name:'t'}))"
        )
        assert self.summary(rows) == [
            ("s1", "t", [1, 4]), ("s1", "t", [2, 3]), ("s2", "t", [5, 4]),
        ]

    def test_rows_are_start_major_end_minor_in_node_order(self, funnel):
        # Three starts against four ends (rooted at the starts), then
        # four starts against three ends (rooted at the ends).
        rows = matches(funnel, "p = shortestPath((a:S)-[:R*0..]-(b))")
        assert [(row["a"].id, row["b"].id) for row in rows] == [
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
            (6, 6),
        ]
        rows = matches(funnel, "p = shortestPath((a)-[:R*0..]-(b:S))")
        assert [(row["a"].id, row["b"].id) for row in rows] == [
            (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
            (4, 1), (4, 2), (5, 1), (5, 2), (6, 6),
        ]

    def test_relationship_list_and_path_keep_source_orientation(self, funnel):
        rows = matches(
            funnel, "p = shortestPath((a:S)<-[rs:R*]-(b:M {name:'m1'}))"
        )
        assert rows == []  # every R points away from the S side
        rows = matches(
            funnel, "p = shortestPath((a:T {name:'t'})<-[rs:R*]-(b:S))"
        )
        assert [[rel.id for rel in row["rs"]] for row in rows] == [[3, 2], [4, 5]]
        for row in rows:
            assert row["p"].start.id == row["a"].id == 5
            assert row["p"].end.id == row["b"].id
            assert list(row["p"].relationships) == row["rs"]
            assert list(row) == ["a", "b", "rs", "p"]

    def test_zero_length_and_start_equals_end(self, funnel):
        rows = matches(funnel, "p = shortestPath((a:S)-[:R*0..]-(b:S))")
        assert self.summary(rows) == [
            ("s1", "s1", []), ("s1", "s2", [1, 5]),
            ("s2", "s1", [5, 1]), ("s2", "s2", []),
            ("lonely", "lonely", []),
        ]
        # With a lower bound of one a node reaches itself only by a cycle.
        rows = matches(funnel, "p = shortestPath((a:S)-[:R*1..]-(b:S))")
        assert self.summary(rows) == [
            ("s1", "s1", [1, 4, 3, 2]), ("s1", "s2", [1, 5]), ("s2", "s1", [5, 1]),
        ]

    def test_same_variable_on_both_ends(self, funnel):
        rows = matches(funnel, "p = shortestPath((a)-[:R*]-(a))")
        assert [
            (row["a"].id, [rel.id for rel in row["p"].relationships])
            for row in rows
        ] == [
            (1, [1, 4, 3, 2]), (3, [1, 2, 3, 4]), (4, [2, 1, 4, 3]),
            (5, [3, 2, 1, 4]),
        ]
        assert all(list(row) == ["a", "p"] for row in rows)

    def test_bound_endpoints(self, funnel):
        scope = {"a": funnel.node(2), "b": funnel.node(5)}
        rows = matches(funnel, "p = shortestPath((a)-[:R*]-(b))", scope)
        assert [list(row) for row in rows] == [["p"]]
        assert [rel.id for rel in rows[0]["p"].relationships] == [5, 4]
        rows = matches(funnel, "p = shortestPath((a:S)-[:R*]-(b))", {"b": funnel.node(5)})
        assert [(row["a"].id, list(row)) for row in rows] == [
            (1, ["a", "p"]), (2, ["a", "p"]),
        ]
        assert matches(
            funnel, "p = shortestPath((a)-[:R*]-(b))", {"a": funnel.node(6)}
        ) == []

    def test_end_pattern_reading_the_start_variable(self, funnel):
        rows = matches(
            funnel, "p = shortestPath((a:M)-[:R*..3]-(b:M {name: a.name}))"
        )
        assert rows == []  # m1 reaches m1 only by the 4-cycle
        rows = matches(
            funnel, "p = shortestPath((a:M)-[:R*]-(b:M {name: a.name}))"
        )
        assert self.summary(rows) == [
            ("m1", "m1", [1, 2, 3, 4]), ("m2", "m2", [2, 1, 4, 3]),
        ]

    def test_relationship_property_reading_an_endpoint_variable(self, funnel):
        # Each middle node is reached only over relationships tagged
        # with its own name: the search differs per pair.
        rows = matches(
            funnel, "p = shortestPath((a:S)-[:R* {via: b.name}]-(b:M))"
        )
        assert self.summary(rows) == [
            ("s1", "m1", [1]), ("s1", "m2", [2]), ("s2", "m1", [5]),
        ]
        rows = matches(
            funnel, "p = shortestPath((a:M)-[:R* {via: a.name}]-(b:S))"
        )
        assert self.summary(rows) == [
            ("m1", "s1", [1]), ("m1", "s2", [5]), ("m2", "s1", [2]),
        ]

    def test_earlier_path_consuming_the_only_shortest_route(self, funnel):
        # (x)-[e]->(y) takes relationship 5, s2's only way out.
        rows = matches(
            funnel,
            "(x {name:'s2'})-[e]->(y), "
            "p = shortestPath((a:S)-[:R*]-(b:T {name:'t'}))",
        )
        assert self.summary(rows) == [("s1", "t", [1, 4])]
        # Taking relationship 1 instead leaves s1 the longer-id route and
        # s2 a detour through it.
        rows = matches(
            funnel,
            "(x {name:'s1'})-[e]->(y {name:'m1'}), "
            "p = shortestPath((a:S)-[:R*]-(b:T {name:'t'}))",
        )
        assert self.summary(rows) == [("s1", "t", [2, 3]), ("s2", "t", [5, 4])]

    def test_unreachable_target_ends_the_search_after_one_pass(self):
        # An isolated endpoint used to be the most expensive case: the
        # (node, depth) search re-expanded every relationship at every
        # level up to |R|.  Pinned by the operator's own counter.
        import random

        rng = random.Random(5)
        builder = GraphBuilder()
        nodes = [
            builder.add_node(["N"], {"k": index}, node_id=index + 1)
            for index in range(151)
        ]
        for rel_id in range(1, 301):
            src, trg = rng.sample(nodes[:150], 2)
            builder.add_relationship(src, "R", trg, rel_id=rel_id)
        graph = builder.build()
        pattern = pattern_of("p = shortestPath((a:N {k:0})-[:R*]-(b:N {k:150}))")
        matcher = matcher_for(graph)
        matcher.hop_counts = {}
        assert list(matcher.match_pattern(pattern, {})) == []
        [expanded] = matcher.hop_counts[(0, 0)]
        assert 0 < expanded <= 2 * len(graph.relationships)


class TestLifetime:
    @pytest.mark.parametrize("text", [
        "p = (a {name:'a'})-[rs:R*1..3]->(b)",
        "p = shortestPath((a {name:'a'})-[rs:R*2..]->(b))",
        "p = allShortestPaths((a)-[:R*]-(b {name:'c'}))",
    ])
    def test_a_match_leaves_nothing_for_the_cyclic_collector(self, triangle, text):
        # Variable-length and shortest-path matching run once per full
        # evaluation; a closure that refers to itself through its own
        # cell would leave cyclic garbage every time, whose collection
        # pauses then land inside event latencies.
        import gc

        pattern = pattern_of(text)
        gc.collect()
        gc.disable()
        try:
            matcher = matcher_for(triangle)
            assert list(matcher.match_pattern(pattern, {}))
            assert list(matcher.match_pattern_traced(pattern, {}))
            del matcher
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHasMatch:
    def test_pattern_predicate_existence(self, social_graph):
        matcher = matcher_for(social_graph)
        path = pattern_of("(a)-[:LIVES_IN]->()").paths[0]
        alice = social_graph.node(1)
        bob = social_graph.node(2)
        assert matcher.has_match(path, {"a": alice})
        assert not matcher.has_match(path, {"a": bob})


def _flagged_ring():
    """12 ``N`` nodes on an ``R`` ring, every third also ``Hot`` and
    ``flag: true``."""
    nodes = [
        Node(id=i, labels=frozenset(["N", "Hot"] if i % 3 == 0 else ["N"]),
             properties={"flag": i % 3 == 0, "score": i % 4})
        for i in range(12)
    ]
    rels = [Relationship(id=100 + i, type="R", src=i, trg=(i + 1) % 12,
                         properties={})
            for i in range(12)]
    return PropertyGraph.of(nodes, rels)


class TestConstantPropertyHoist:
    def test_literal_evaluated_once_per_pattern_not_per_candidate(
        self, monkeypatch
    ):
        literal_evals = []
        original = ExpressionEvaluator.evaluate

        def counting(self, expression, scope):
            if isinstance(expression, ast.Literal):
                literal_evals.append(expression)
            return original(self, expression, scope)

        monkeypatch.setattr(ExpressionEvaluator, "evaluate", counting)
        table = run_cypher(
            "MATCH (a:N {flag: true}) RETURN id(a)", _flagged_ring()
        )
        assert len(table) == 4  # 12 N-candidates walked
        # Hoisted: one evaluation for the pattern's literal, not one per
        # candidate the label scan enumerates.
        assert len(literal_evals) == 1

    def test_hoist_cache_is_per_matcher_and_id_safe(self):
        evaluator = QueryEvaluator(_flagged_ring())
        properties = pattern_of("(a:N {flag: true})").paths[0].nodes[0] \
            .properties
        first = evaluator.matcher._const_entries(properties)
        assert evaluator.matcher._const_entries(properties) is first
        key, is_const, value = first[0]
        assert (key, is_const, value) == ("flag", True, True)
