"""Unit tests for physical plan compilation, execution, and caching.

The contract under test: ``execute_plan(compile_query(q, stats), ...)``
produces the *byte-identical* table :func:`semantics.execute_body`
would, hoisted or not, for every query ``register()`` accepts — seeks
are supersets the matcher re-checks, unindexable anchor values degrade
to scans, and a (hand-built) body clause no stage models is a typed
SeraphSemanticError instead of a guess.
"""

import pickle

import pytest

from repro.cypher.physical import (
    PhysicalPlan,
    PlanProfile,
    compile_query,
    execute_plan,
    render_plan,
)
from repro.cypher.plan_cache import (
    PLANS_PER_QUERY,
    PlanCache,
    band_signature,
    stats_band,
)
from repro.errors import SeraphSemanticError
from repro.graph.builder import GraphBuilder
from repro.seraph import semantics
from repro.seraph.parser import parse_seraph
from repro.stream.timeline import TimeInterval


def _graph():
    builder = GraphBuilder()
    people = [
        builder.add_node(["Person"], {"name": f"p{i}", "age": 20 + i},
                         node_id=i + 1)
        for i in range(8)
    ]
    city = builder.add_node(["City"], {"name": "Rome"}, node_id=100)
    for index, person in enumerate(people):
        builder.add_relationship(person, "LIVES_IN", city, rel_id=index + 1)
    for left, right in zip(people, people[1:]):
        builder.add_relationship(left, "KNOWS", right,
                                 rel_id=100 + left)
    return builder.build()


def _compile(text, graph):
    return compile_query(parse_seraph(text), lambda _s, _w: graph)


def _both(text, graph, lo=0, hi=100):
    query = parse_seraph(text)
    interval = TimeInterval(lo, hi)
    plan = compile_query(query, lambda _s, _w: graph)
    physical = execute_plan(plan, lambda _s, _w: graph, interval)
    interpreted = semantics.execute_body(
        query, lambda _s, _w: graph, interval
    )
    return plan, physical, interpreted


def _profiled(plan, graph, **options):
    profile = PlanProfile()
    table = execute_plan(plan, lambda _s, _w: graph, TimeInterval(0, 100),
                         profile=profile, **options)
    return table, profile


def _unsupported_query():
    """A structurally valid SeraphQuery with a mid-body clause no stage
    models (a bare Return)."""
    import dataclasses

    from repro.seraph.semantics import terminal_clause

    query = parse_seraph(SIMPLE)
    return dataclasses.replace(
        query, body=query.body + (terminal_clause(query),)
    )


SIMPLE = """
REGISTER QUERY q STARTING AT 2024-01-01T00:00h
{
  MATCH (p:Person {name: 'p3'})-[:LIVES_IN]->(c:City)
  WITHIN PT10S
  EMIT p.age AS age, c.name AS city
  SNAPSHOT EVERY PT10S
}
"""

PIPELINE = """
REGISTER QUERY q STARTING AT 2024-01-01T00:00h
{
  MATCH (a:Person)-[:KNOWS]->(b:Person)
  WITHIN PT10S
  WHERE a.age < 25
  WITH a, count(b) AS friends
  EMIT a.name AS name, friends
  SNAPSHOT EVERY PT10S
}
"""


class TestCompilation:
    def test_seek_pipeline_shape(self):
        plan = _compile(SIMPLE, _graph())
        kinds = [op.kind for op in plan.operators()]
        assert kinds == ["IndexSeek", "ExpandHop", "Project"]
        assert plan.stages[0].seek is not None
        assert plan.stages[0].seek.label == "Person"
        assert plan.stages[0].seek.key == "name"

    def test_label_scan_without_property_map(self):
        plan = _compile(PIPELINE, _graph())
        kinds = {op.kind for op in plan.operators()}
        assert "LabelScan" in kinds and "IndexSeek" not in kinds
        assert "Filter" in kinds and "Aggregate" in kinds

    def test_seek_prefers_the_rarer_label(self):
        text = SIMPLE.replace("(p:Person {name: 'p3'})",
                              "(p:City:Person {name: 'p3'})")
        plan = _compile(text, _graph())
        assert plan.stages[0].seek.label == "City"

    def test_op_ids_are_dense_and_unique(self):
        plan = _compile(PIPELINE, _graph())
        ids = [op.op_id for op in plan.operators()]
        assert ids == list(range(plan.op_count))

    def test_unsupported_clause_raises(self):
        # The Seraph surface grammar cannot produce an unsupported body
        # clause, but programmatically-built queries can (e.g. a Return
        # mid-body); the compiler must refuse rather than guess.
        query = _unsupported_query()
        for hoist in (True, False):
            with pytest.raises(SeraphSemanticError):
                compile_query(query, lambda _s, _w: _graph(), hoist=hoist)

    def test_registration_rejects_what_cannot_compile(self):
        """Compile totality, engine side: no registered query lacks a
        plan, so the refusal happens at ``register()`` — with or without
        the semantic validation pass — and leaves nothing behind."""
        from repro.seraph import SeraphEngine

        for reference in (False, True):
            engine = SeraphEngine(reference=reference)
            for validate in (True, False):
                with pytest.raises(SeraphSemanticError):
                    engine.register(_unsupported_query(), validate=validate)
            assert engine.query_names == []

    def test_unhoisted_plan_reads_no_statistics(self):
        plan = compile_query(parse_seraph(PIPELINE), None, hoist=False)
        kinds = [op.kind for op in plan.operators()]
        assert kinds == ["Match", "Filter", "Aggregate", "Project"]
        stage = plan.stages[0]
        assert stage.pattern is None and stage.seek is None
        assert plan.band == ()

    def test_plan_is_picklable(self):
        plan = _compile(PIPELINE, _graph())
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, PhysicalPlan)
        assert render_plan(clone) == render_plan(plan)
        table = execute_plan(
            clone, lambda _s, _w: _graph(), TimeInterval(0, 100)
        )
        assert table == execute_plan(
            plan, lambda _s, _w: _graph(), TimeInterval(0, 100)
        )


class TestExecution:
    @pytest.mark.parametrize("text", [SIMPLE, PIPELINE])
    def test_identical_to_interpreted(self, text):
        _plan, physical, interpreted = _both(text, _graph())
        assert physical == interpreted
        assert list(physical.records) == list(interpreted.records)

    @pytest.mark.parametrize("text", [SIMPLE, PIPELINE])
    def test_unhoisted_identical_to_interpreted(self, text):
        graph = _graph()
        plan = compile_query(parse_seraph(text), None, hoist=False)
        table, profile = _profiled(plan, graph)
        interpreted = semantics.execute_body(
            parse_seraph(text), lambda _s, _w: graph, TimeInterval(0, 100)
        )
        assert list(table.records) == list(interpreted.records)
        # The opaque Match op reports the matched rows.
        assert profile.rows[plan.stages[0].ops["match"]] > 0

    def test_seek_counts_rows(self):
        graph = _graph()
        plan = _compile(SIMPLE, graph)
        _table, profile = _profiled(plan, graph)
        seek_id = plan.stages[0].seek.op_id
        assert profile.rows[seek_id] == 1  # one p3 in the bucket
        assert profile.rows[plan.stages[0].ops[(0, 0)]] == 1

    def test_unindexable_anchor_value_falls_back_to_scan(self):
        graph = _graph()
        text = SIMPLE.replace("'p3'", "[1, 2]")
        plan = _compile(text, graph)
        assert plan.stages[0].seek is not None  # compiled optimistically
        table, profile = _profiled(plan, graph)
        assert plan.stages[0].seek.op_id not in profile.rows  # scan taken
        assert len(table) == 0  # no Person.name equals a list

    def test_null_anchor_value_matches_interpreted(self):
        text = SIMPLE.replace("'p3'", "null")
        _plan, physical, interpreted = _both(text, _graph())
        assert physical == interpreted

    def test_row_counts_flow_through_projection(self):
        graph = _graph()
        plan = _compile(PIPELINE, graph)
        _table, profile = _profiled(plan, graph)
        rows = profile.rows
        stage = plan.stages[0]
        aggregate = plan.stages[1]  # the WITH ... count(b) stage
        project = plan.stages[-1]  # the EMIT terminal
        assert rows[stage.ops[(0, 0)]] == 7  # KNOWS chain
        assert rows[stage.ops["filter"]] < rows[stage.ops[(0, 0)]]
        assert rows[aggregate.ops["aggregate"]] > 0
        assert rows[project.ops["project"]] == rows[aggregate.ops["aggregate"]]

    def test_render_plan_includes_rows(self):
        graph = _graph()
        plan = _compile(SIMPLE, graph)
        _table, profile = _profiled(plan, graph)
        rendered = render_plan(plan, profile)
        assert "IndexSeek" in rendered
        assert "rows=" in rendered
        assert "[op 0]" in rendered


def _people(count):
    builder = GraphBuilder()
    for i in range(count):
        builder.add_node(["Person"], {"name": f"x{i}"}, node_id=i + 1)
    return builder.build()


class TestPlanCache:
    def test_hit_on_same_band(self):
        graph = _graph()
        cache = PlanCache()
        query = parse_seraph(SIMPLE)
        first = cache.plan_for(query, lambda _s, _w: graph)
        second = cache.plan_for(query, lambda _s, _w: graph)
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_invalidated_on_band_drift(self):
        small, big = _graph(), _people(200)
        cache = PlanCache()
        query = parse_seraph(SIMPLE)
        first = cache.plan_for(query, lambda _s, _w: small)
        second = cache.plan_for(query, lambda _s, _w: big)
        assert first is not second
        assert cache.invalidations == 1

    def test_a_band_seen_before_is_a_hit(self):
        """A statistic oscillating across a band boundary flips between
        two retained plans; it compiles once per band, not per crossing."""
        small, big = _graph(), _people(200)
        cache = PlanCache()
        query = parse_seraph(SIMPLE)
        first = cache.plan_for(query, lambda _s, _w: small)
        second = cache.plan_for(query, lambda _s, _w: big)
        for _ in range(5):
            assert cache.plan_for(query, lambda _s, _w: small) is first
            assert cache.plan_for(query, lambda _s, _w: big) is second
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 10
        assert cache.stats()["plans"] == len(cache) == 2

    def test_retention_per_query_is_bounded_oldest_first(self):
        cache = PlanCache()
        query = parse_seraph(SIMPLE)
        sizes = [2 ** (power + 3) for power in range(PLANS_PER_QUERY + 1)]
        plans = [
            cache.plan_for(query, lambda _s, _w, n=n: _people(n))
            for n in sizes
        ]
        assert len(cache) == PLANS_PER_QUERY
        # The newest bands are hits; the oldest was evicted and recompiles.
        assert cache.plan_for(
            query, lambda _s, _w: _people(sizes[-1])) is plans[-1]
        misses = cache.misses
        assert cache.plan_for(
            query, lambda _s, _w: _people(sizes[0])) is not plans[0]
        assert cache.misses == misses + 1

    def test_exact_quantize_mode(self):
        graph = _graph()
        cache = PlanCache(quantize=int)
        query = parse_seraph(SIMPLE)
        cache.plan_for(query, lambda _s, _w: graph)
        grown = graph.patched(
            nodes=[next(iter(graph.nodes.values()))]
        )  # same stats: still a hit
        cache.plan_for(query, lambda _s, _w: grown)
        assert cache.hits == 1

    def test_band_signature_covers_referenced_names_only(self):
        graph = _graph()
        signature = band_signature(
            parse_seraph(SIMPLE), lambda _s, _w: graph
        )
        (entry,) = signature
        labels = dict(entry[3])
        assert set(labels) == {"Person", "City"}
        assert labels["Person"] == stats_band(8)

    def test_compile_failure_is_not_cached(self):
        graph = _graph()
        cache = PlanCache()
        with pytest.raises(SeraphSemanticError):
            cache.plan_for(_unsupported_query(), lambda _s, _w: graph)
        assert len(cache) == 0

    def test_unhoisted_cache_holds_one_plan_per_query(self):
        """Without hoisting nothing depends on statistics: one compile,
        then hits, whatever the snapshots look like."""
        cache = PlanCache(hoist=False)
        query = parse_seraph(SIMPLE)
        first = cache.plan_for(query, lambda _s, _w: _graph())
        assert cache.plan_for(query, lambda _s, _w: _people(200)) is first
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)

    def test_evict(self):
        graph = _graph()
        cache = PlanCache()
        query = parse_seraph(SIMPLE)
        cache.plan_for(query, lambda _s, _w: graph)
        cache.evict(query)
        assert len(cache) == 0


VARLEN_QUERY = """
REGISTER QUERY q STARTING AT 1970-01-01T00:00h
{
  MATCH (a:Hot)-[*1..2]->(b:N {flag: true})
  WITHIN PT10S
  EMIT id(a) AS a, id(b) AS b
  SNAPSHOT EVERY PT10S
}
"""


def test_var_length_rows_count_expanded_before_filtering():
    from repro.graph.model import Node, PropertyGraph, Relationship

    graph = PropertyGraph.of(
        [Node(id=i, labels=frozenset(["N", "Hot"] if i % 3 == 0 else ["N"]),
              properties={"flag": i % 3 == 0}) for i in range(12)],
        [Relationship(id=100 + i, type="R", src=i, trg=(i + 1) % 12,
                      properties={}) for i in range(12)],
    )
    plan = compile_query(parse_seraph(VARLEN_QUERY), lambda _s, _w: graph)
    profile = PlanProfile()
    table = execute_plan(plan, lambda _s, _w: graph, TimeInterval(0, 100),
                         profile=profile)
    expanded = profile.rows[plan.stages[0].ops[(0, 0)]]
    # Every hop-1 and hop-2 expansion is accounted, not just the ones
    # whose terminal node passes the (b:N {flag: true}) filter.
    assert expanded == 8  # 4 Hot starts x 2 depths x 1 neighbour
    assert len(table) < expanded
