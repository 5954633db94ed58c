"""Unit tests for the heuristic pattern planner."""

import pytest

from repro.cypher import ast, run_cypher
from repro.cypher.parser import CypherParser
from repro.cypher.planner import (
    node_anchor_cost,
    orient_path,
    path_cost,
    plan_pattern,
)
from repro.graph.builder import GraphBuilder


def pattern_of(text):
    return CypherParser(text).parse_pattern()


@pytest.fixture
def skewed_graph():
    """Many :Common nodes, one :Rare node, a few edges."""
    builder = GraphBuilder()
    rare = builder.add_node(["Rare"], {"name": "hub"}, node_id=1)
    commons = [
        builder.add_node(["Common"], {}, node_id=index + 10)
        for index in range(50)
    ]
    for index, common in enumerate(commons[:5]):
        builder.add_relationship(common, "R", rare, rel_id=index + 1)
    return builder.build()


class TestAnchorCosts:
    def test_bound_variable_is_cheapest(self, skewed_graph):
        node = ast.NodePattern(variable="x", labels=("Common",))
        assert node_anchor_cost(node, skewed_graph, frozenset({"x"})) == 1.0

    def test_rare_label_beats_common(self, skewed_graph):
        rare = ast.NodePattern(labels=("Rare",))
        common = ast.NodePattern(labels=("Common",))
        assert node_anchor_cost(rare, skewed_graph, frozenset()) < \
            node_anchor_cost(common, skewed_graph, frozenset())

    def test_bare_node_costs_whole_graph(self, skewed_graph):
        node = ast.NodePattern()
        assert node_anchor_cost(node, skewed_graph, frozenset()) == 51.0

    def test_properties_boost_selectivity(self, skewed_graph):
        plain = ast.NodePattern(labels=("Common",))
        with_props = ast.NodePattern(
            labels=("Common",),
            properties=(("name", ast.Literal("x")),),
        )
        assert node_anchor_cost(with_props, skewed_graph, frozenset()) < \
            node_anchor_cost(plain, skewed_graph, frozenset())

    def test_missing_label_clamped_above_zero(self, skewed_graph):
        # An empty label must not cost exactly 0.0: at zero, property-map
        # selectivity can no longer break ties between empty-label paths.
        node = ast.NodePattern(labels=("Ghost",))
        cost = node_anchor_cost(node, skewed_graph, frozenset())
        assert 0.0 < cost < 1.0

    def test_empty_label_property_map_breaks_ties(self, skewed_graph):
        plain = ast.NodePattern(labels=("Ghost",))
        with_props = ast.NodePattern(
            labels=("Ghost",),
            properties=(("name", ast.Literal("x")),),
        )
        assert node_anchor_cost(with_props, skewed_graph, frozenset()) < \
            node_anchor_cost(plain, skewed_graph, frozenset())


class TestOrientation:
    def test_path_reversed_toward_rare_anchor(self, skewed_graph):
        path = pattern_of("(c:Common)-[:R]->(r:Rare)").paths[0]
        oriented = orient_path(path, skewed_graph, frozenset())
        assert oriented.flipped
        assert oriented.nodes[0].labels == ("Rare",)
        assert oriented.relationships[0].direction is ast.Direction.IN

    def test_already_good_orientation_kept(self, skewed_graph):
        path = pattern_of("(r:Rare)<-[:R]-(c:Common)").paths[0]
        oriented = orient_path(path, skewed_graph, frozenset())
        assert not oriented.flipped

    def test_shortest_path_never_reversed(self, skewed_graph):
        path = pattern_of(
            "shortestPath((c:Common)-[:R*..3]->(r:Rare))"
        ).paths[0]
        assert orient_path(path, skewed_graph, frozenset()) is path

    def test_reversed_pattern_round_trip(self):
        path = pattern_of("(a:A)-[r:T*1..3]->(b:B)").paths[0]
        double = path.reversed_pattern().reversed_pattern()
        assert double == path
        assert not double.flipped

    def test_shortest_path_kept_even_with_cheap_far_end(self, skewed_graph):
        # A shortestPath whose *far* endpoint is the rare anchor must not
        # be reversed — its semantics depend on the written orientation.
        path = pattern_of(
            "shortestPath((c:Common)-[*..4]->(r:Rare))"
        ).paths[0]
        oriented = orient_path(path, skewed_graph, frozenset())
        assert oriented is path
        assert not oriented.flipped
        assert oriented.nodes[0].labels == ("Common",)

    def test_all_shortest_paths_never_reversed(self, skewed_graph):
        path = pattern_of(
            "allShortestPaths((c:Common)-[*..4]->(r:Rare))"
        ).paths[0]
        assert orient_path(path, skewed_graph, frozenset()) is path

    def test_bound_endpoint_beats_rare_label(self, skewed_graph):
        # With c bound in scope, walking from c (cost 1.0) beats walking
        # from the rare anchor (cost 1.0 * nothing — rare costs >= 1).
        path = pattern_of("(c)-[:R]->(r:Rare)").paths[0]
        oriented = orient_path(path, skewed_graph, frozenset({"c"}))
        assert not oriented.flipped

    def test_bound_far_endpoint_reverses(self, skewed_graph):
        path = pattern_of("(c:Common)-[:R]->(r)").paths[0]
        oriented = orient_path(path, skewed_graph, frozenset({"r"}))
        assert oriented.flipped
        assert oriented.nodes[0].variable == "r"


class TestJoinOrdering:
    def test_selective_path_first(self, skewed_graph):
        pattern = pattern_of("(c:Common)-->(x), (r:Rare)-->(y)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        first_labels = {
            node.labels
            for node in planned.paths[0].nodes
            if node.labels
        }
        assert ("Rare",) in first_labels

    def test_connected_paths_preferred_over_cartesian(self, skewed_graph):
        # (a)-->(b), (c)-->(d), (b)-->(c): after the first path, the one
        # sharing b should come before the disconnected one.
        pattern = pattern_of("(r:Rare)-->(b), (c:Common)-->(d), (b)-->(c)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        second_vars = set(planned.paths[1].free_variables())
        assert "b" in second_vars

    def test_single_path_only_oriented(self, skewed_graph):
        pattern = pattern_of("(c:Common)-[:R]->(r:Rare)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        assert len(planned.paths) == 1

    def test_all_variables_preserved(self, skewed_graph):
        pattern = pattern_of("(a:Rare)-->(b), (c)-->(b), q = (c)-[*1..2]->(d)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        assert set(planned.free_variables()) == set(pattern.free_variables())

    def test_bound_variable_connects_across_cartesian_boundary(
        self, skewed_graph
    ):
        # With b pre-bound in scope, the path touching b is "connected"
        # from the start: it must be scheduled before the genuinely
        # disconnected (c)-->(d) even though both mention no planned vars.
        pattern = pattern_of("(c:Common)-->(d), (b)-->(e)")
        planned = plan_pattern(pattern, skewed_graph, frozenset({"b"}))
        assert "b" in set(planned.paths[0].free_variables())

    def test_cartesian_boundary_picks_cheapest_remaining(self, skewed_graph):
        # Two disconnected components: at the boundary the planner jumps
        # to the cheapest remaining anchor (the rare one), not textual
        # order.
        pattern = pattern_of("(c:Common)-->(d), (r:Rare)-->(s)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        assert "r" in set(planned.paths[0].free_variables())
        assert "c" in set(planned.paths[1].free_variables())

    def test_bound_variables_shape_orientation_inside_plan(
        self, skewed_graph
    ):
        # The second path's orientation is decided under the variable set
        # accumulated so far: d becomes bound by the first path, so the
        # (x)-->(d) path walks backward from d.
        pattern = pattern_of("(r:Rare)-->(d), (x:Common)-->(d)")
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        second = planned.paths[1]
        assert second.flipped
        assert second.nodes[0].variable == "d"

    def test_shortest_path_at_cartesian_boundary_keeps_orientation(
        self, skewed_graph
    ):
        pattern = pattern_of(
            "(r:Rare)-->(b), p = shortestPath((c:Common)-[*..3]->(q:Rare))"
        )
        planned = plan_pattern(pattern, skewed_graph, frozenset())
        shortest = [
            path for path in planned.paths if path.shortest is not None
        ]
        assert len(shortest) == 1
        assert not shortest[0].flipped
        assert shortest[0].nodes[0].labels == ("Common",)


class TestPlannerPreservesResults:
    QUERIES = [
        "MATCH (c:Common)-[e:R]->(r:Rare) RETURN count(e) AS n",
        "MATCH (a)-->(b), (c)-->(b) WHERE id(a) < id(c) "
        "RETURN count(*) AS pairs",
        "MATCH p = (c:Common)-[:R*1..2]->(r:Rare) "
        "RETURN count(p) AS paths, collect(length(p))[0] AS l",
        "MATCH q = (c:Common)-[rs:R*1..1]->(:Rare) "
        "RETURN id(nodes(q)[0]) AS first_id, size(rs) AS k "
        "ORDER BY first_id LIMIT 3",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_optimized_equals_unoptimized(self, skewed_graph, query):
        fast = run_cypher(query, skewed_graph, optimize=True)
        slow = run_cypher(query, skewed_graph, optimize=False)
        assert fast.bag_equals(slow)

    def test_path_orientation_faithful(self, skewed_graph):
        # The bound path value must start at the *written* start even
        # when the planner walks from the other end.
        table = run_cypher(
            "MATCH p = (c:Common)-[:R]->(r:Rare) "
            "RETURN id(nodes(p)[0]) AS first ORDER BY first LIMIT 1",
            skewed_graph,
        )
        assert table.records[0]["first"] >= 10  # a Common node, not the hub

    def test_var_length_list_orientation_faithful(self, skewed_graph):
        fast = run_cypher(
            "MATCH (c:Common)-[rs:R*1..1]->(r:Rare) "
            "RETURN [x IN rs | id(x)] AS ids ORDER BY ids",
            skewed_graph, optimize=True,
        )
        slow = run_cypher(
            "MATCH (c:Common)-[rs:R*1..1]->(r:Rare) "
            "RETURN [x IN rs | id(x)] AS ids ORDER BY ids",
            skewed_graph, optimize=False,
        )
        assert fast.bag_equals(slow)
