"""Unit tests for the clause pipeline — ``[[Q]]_G`` (Section 3.2)."""

import pytest

from repro.cypher import run_cypher
from repro.cypher.evaluator import QueryEvaluator
from repro.cypher.parser import parse_cypher
from repro.errors import CypherEvaluationError
from repro.graph.model import PropertyGraph
from repro.graph.table import Record, Table
from repro.graph.values import NULL


def rows(table):
    return [dict(record) for record in table]


class TestOutputSeed:
    def test_evaluation_starts_from_unit_table(self):
        # output(Q, G) = [[Q]]_G(T()) — a clause-less RETURN yields one row.
        table = run_cypher("RETURN 1 AS one", PropertyGraph.empty())
        assert rows(table) == [{"one": 1}]


class TestMatchClause:
    def test_match_expands_fields(self, social_graph):
        table = run_cypher("MATCH (n:Person) RETURN n.name AS name ORDER BY name",
                           social_graph)
        assert [record["name"] for record in table] == ["Alice", "Bob", "Carol"]

    def test_match_where_filters(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WHERE n.age >= 30 RETURN n.name AS name ORDER BY name",
            social_graph,
        )
        assert [record["name"] for record in table] == ["Alice", "Carol"]

    def test_where_unknown_is_dropped(self, social_graph):
        # Nulls in predicates drop the row (not an error).
        table = run_cypher(
            "MATCH (n) WHERE n.age > 0 RETURN n.name AS name",
            social_graph,
        )
        assert len(table) == 3  # the two cities have no age → unknown → dropped

    def test_chained_matches_join(self, social_graph):
        table = run_cypher(
            "MATCH (a:Person)-[:KNOWS]->(b) MATCH (b)-[:LIVES_IN]->(c) "
            "RETURN a.name AS a, c.name AS c ORDER BY a",
            social_graph,
        )
        assert rows(table) == [
            {"a": "Alice", "c": "Lyon"},
            {"a": "Bob", "c": "Lyon"},
        ]

    def test_optional_match_binds_nulls(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) OPTIONAL MATCH (n)-[:LIVES_IN]->(c) "
            "RETURN n.name AS name, c.name AS city ORDER BY name",
            social_graph,
        )
        assert rows(table) == [
            {"name": "Alice", "city": "Leipzig"},
            {"name": "Bob", "city": NULL},
            {"name": "Carol", "city": "Lyon"},
        ]

    def test_optional_match_where_applies_per_match(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) OPTIONAL MATCH (n)-[k:KNOWS]->(m) "
            "WHERE k.since > 2016 "
            "RETURN n.name AS name, m.name AS friend ORDER BY name, friend",
            social_graph,
        )
        assert {"name": "Alice", "friend": "Carol"} in rows(table)
        assert {"name": "Bob", "friend": "Carol"} in rows(table)
        assert {"name": "Carol", "friend": NULL} in rows(table)


class TestUnwind:
    def test_unwind_list(self):
        table = run_cypher("UNWIND [1, 2, 3] AS x RETURN x", PropertyGraph.empty())
        assert [record["x"] for record in table] == [1, 2, 3]

    def test_unwind_null_and_empty_produce_no_rows(self):
        graph = PropertyGraph.empty()
        assert len(run_cypher("UNWIND null AS x RETURN x", graph)) == 0
        assert len(run_cypher("UNWIND [] AS x RETURN x", graph)) == 0

    def test_unwind_scalar_single_row(self):
        table = run_cypher("UNWIND 5 AS x RETURN x", PropertyGraph.empty())
        assert rows(table) == [{"x": 5}]

    def test_unwind_cross_product(self):
        table = run_cypher(
            "UNWIND [1,2] AS x UNWIND ['a','b'] AS y RETURN x, y",
            PropertyGraph.empty(),
        )
        assert len(table) == 4


class TestProjection:
    def test_with_pipes_scope(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WITH n.age AS age WHERE age < 31 "
            "RETURN age ORDER BY age",
            social_graph,
        )
        assert [record["age"] for record in table] == [25, 30]

    def test_with_star_keeps_fields(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WITH *, n.age AS age RETURN n.name AS name, age "
            "ORDER BY age LIMIT 1",
            social_graph,
        )
        assert rows(table) == [{"name": "Bob", "age": 25}]

    def test_distinct(self, social_graph):
        table = run_cypher(
            "MATCH (:Person)-[:KNOWS]->(b) RETURN DISTINCT b.name AS name "
            "ORDER BY name",
            social_graph,
        )
        assert [record["name"] for record in table] == ["Bob", "Carol"]

    def test_distinct_keeps_integers_a_float_cannot_tell_apart(self):
        # 2**53 + 1 and 2**53 round to the same float, yet are unequal.
        table = run_cypher(
            "UNWIND [9007199254740993, 9007199254740992, 9007199254740992.0] "
            "AS x RETURN DISTINCT x",
            PropertyGraph.empty(),
        )
        assert [record["x"] for record in table] == [
            9007199254740993, 9007199254740992,
        ]

    def test_grouping_keeps_integers_a_float_cannot_tell_apart(self):
        table = run_cypher(
            "UNWIND [9007199254740993, 9007199254740992, 9007199254740993] "
            "AS x RETURN x, count(*) AS n",
            PropertyGraph.empty(),
        )
        assert rows(table) == [
            {"x": 9007199254740993, "n": 2}, {"x": 9007199254740992, "n": 1},
        ]

    def test_entering_diff_keeps_integers_a_float_cannot_tell_apart(self):
        # ON ENTERING is a bag difference on the same key.
        now = Table([Record(x=2**53 + 1)], fields={"x"})
        before = Table([Record(x=2**53)], fields={"x"})
        assert rows(now.bag_difference(before)) == [{"x": 2**53 + 1}]

    def test_skip_limit(self):
        table = run_cypher(
            "UNWIND [3,1,2] AS x RETURN x ORDER BY x SKIP 1 LIMIT 1",
            PropertyGraph.empty(),
        )
        assert rows(table) == [{"x": 2}]

    def test_order_by_descending(self):
        table = run_cypher(
            "UNWIND [1,3,2] AS x RETURN x ORDER BY x DESC",
            PropertyGraph.empty(),
        )
        assert [record["x"] for record in table] == [3, 2, 1]

    def test_order_by_underlying_variable(self, social_graph):
        # ORDER BY may reference pipeline variables not projected.
        table = run_cypher(
            "MATCH (n:Person) RETURN n.name AS name ORDER BY n.age DESC",
            social_graph,
        )
        assert [record["name"] for record in table] == ["Carol", "Alice", "Bob"]

    def test_null_sorts_last_ascending(self):
        table = run_cypher(
            "UNWIND [{v: 2}, {v: null}, {v: 1}] AS m RETURN m.v AS v ORDER BY v",
            PropertyGraph.empty(),
        )
        assert [record["v"] for record in table] == [1, 2, NULL]

    def test_unaliased_item_uses_rendered_name(self, social_graph):
        table = run_cypher("MATCH (n:Person) RETURN n.age", social_graph)
        assert table.fields == frozenset({"n.age"})

    def test_skip_rejects_negative(self):
        with pytest.raises(CypherEvaluationError):
            run_cypher("RETURN 1 AS x SKIP -1", PropertyGraph.empty())


class TestAggregation:
    def test_global_aggregates(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) RETURN count(*) AS n, min(n.age) AS lo, "
            "max(n.age) AS hi, avg(n.age) AS mean, sum(n.age) AS total",
            social_graph,
        )
        assert rows(table) == [
            {"n": 3, "lo": 25, "hi": 35, "mean": 30.0, "total": 90}
        ]

    def test_grouped_aggregates(self, social_graph):
        table = run_cypher(
            "MATCH (a:Person)-[:KNOWS]->(b:Person) "
            "RETURN a.name AS name, count(*) AS friends ORDER BY name",
            social_graph,
        )
        assert rows(table) == [
            {"name": "Alice", "friends": 2},
            {"name": "Bob", "friends": 1},
        ]

    def test_aggregate_over_empty_input_yields_one_row(self):
        table = run_cypher(
            "MATCH (n:Missing) RETURN count(*) AS n", PropertyGraph.empty()
        )
        assert rows(table) == [{"n": 0}]

    def test_grouped_aggregate_over_empty_input_is_empty(self):
        table = run_cypher(
            "MATCH (n:Missing) RETURN n.x AS x, count(*) AS c",
            PropertyGraph.empty(),
        )
        assert len(table) == 0

    def test_collect(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WITH n.name AS name ORDER BY name "
            "RETURN collect(name) AS names",
            social_graph,
        )
        assert rows(table) == [{"names": ["Alice", "Bob", "Carol"]}]

    def test_count_distinct(self, social_graph):
        table = run_cypher(
            "MATCH (:Person)-[:KNOWS]->(b) RETURN count(DISTINCT b) AS n",
            social_graph,
        )
        assert rows(table) == [{"n": 2}]

    def test_aggregate_in_arithmetic(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) RETURN avg(n.age) + 1 AS shifted",
            social_graph,
        )
        assert rows(table) == [{"shifted": 31.0}]

    def test_aggregate_composed_with_function(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) RETURN size(collect(n.name)) AS n",
            social_graph,
        )
        assert rows(table) == [{"n": 3}]

    def test_with_aggregation_then_filter(self, social_graph):
        table = run_cypher(
            "MATCH (a:Person)-[:KNOWS]->(b) WITH a, count(*) AS friends "
            "WHERE friends > 1 RETURN a.name AS name",
            social_graph,
        )
        assert rows(table) == [{"name": "Alice"}]

    def test_star_with_aggregate_rejected(self, social_graph):
        with pytest.raises(CypherEvaluationError):
            run_cypher("MATCH (n) RETURN *, count(*) AS c", social_graph)


class TestUnion:
    def test_union_distinct(self):
        table = run_cypher(
            "RETURN 1 AS x UNION RETURN 1 AS x UNION RETURN 2 AS x",
            PropertyGraph.empty(),
        )
        assert sorted(record["x"] for record in table) == [1, 2]

    def test_union_all_keeps_duplicates(self):
        table = run_cypher(
            "RETURN 1 AS x UNION ALL RETURN 1 AS x", PropertyGraph.empty()
        )
        assert [record["x"] for record in table] == [1, 1]

    def test_union_field_mismatch_rejected(self):
        with pytest.raises(CypherEvaluationError):
            run_cypher("RETURN 1 AS x UNION RETURN 1 AS y",
                       PropertyGraph.empty())


class TestBaseScope:
    def test_base_scope_variables_visible(self, social_graph):
        # The Seraph layer injects win_start/win_end this way (Def. 5.6).
        table = run_cypher(
            "MATCH (n:Person) WHERE n.age > threshold RETURN n.name AS name",
            social_graph,
            base_scope={"threshold": 30},
        )
        assert rows(table) == [{"name": "Carol"}]

    def test_base_scope_survives_with_projection(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WITH n.name AS name "
            "WHERE name <> excluded RETURN name ORDER BY name",
            social_graph,
            base_scope={"excluded": "Bob"},
        )
        assert [record["name"] for record in table] == ["Alice", "Carol"]

    def test_parameters(self, social_graph):
        table = run_cypher(
            "MATCH (n:Person) WHERE n.age = $age RETURN n.name AS name",
            social_graph,
            parameters={"age": 25},
        )
        assert rows(table) == [{"name": "Bob"}]


class TestRunFromExistingTable:
    def test_pipeline_can_seed_from_table(self, social_graph):
        evaluator = QueryEvaluator(social_graph)
        seed = Table([Record({"threshold": 30})])
        query = parse_cypher(
            "MATCH (n:Person) WHERE n.age > threshold RETURN n.name AS name"
        )
        table = evaluator.run(query, seed)
        assert rows(table) == [{"name": "Carol"}]


class TestLifetime:
    def test_evaluator_is_freed_without_the_cyclic_collector(self, social_graph):
        # One QueryEvaluator is built per evaluation; if it sat in a
        # reference cycle every replaced snapshot graph would wait for the
        # collector, whose pauses then land inside event latencies.
        import gc
        import weakref

        query = parse_cypher(
            "MATCH (p:Person) WHERE (p)-[:LIVES_IN]->() "
            "RETURN p.name AS name ORDER BY name"
        )
        gc.collect()
        gc.disable()
        try:
            evaluator = QueryEvaluator(social_graph)
            matcher = weakref.ref(evaluator.matcher)
            # Pattern predicates still reach the matcher.
            assert rows(evaluator.run(query)) == [
                {"name": "Alice"}, {"name": "Carol"}
            ]
            del evaluator
            assert matcher() is None
        finally:
            gc.enable()
