"""Engine-level physical plan integration.

The engine compiles each registered query once (per statistics band),
executes the compiled plan on full evaluations, feeds its pre-planned
pattern to the delta path, and surfaces compiles / cache hit-rate /
the per-operator ``PlanProfile`` through ``status()`` and ``EXPLAIN
ANALYZE``.  The reference twin compiles the same stages un-hoisted
(planned per evaluation) with identical results.
"""

from repro import EngineConfig, build_engine
from repro.cypher.plan_cache import PLANS_PER_QUERY
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.explain import explain, explain_analyze
from repro.usecases.micromobility import _t, figure1_stream

from ..modes import SLOW_TWIN

#: Reading ``win_end`` keeps it off the delta path and off reuse: every
#: evaluation runs the compiled plan, seek included.
SEEK_QUERY = """
REGISTER QUERY anna_rentals STARTING AT 2022-08-01T14:45
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station {id: 1}) WITHIN PT1H
  EMIT id(b) AS bike, r.user_id AS user, win_end AS until
  SNAPSHOT EVERY PT5M
}
"""

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals
  SNAPSHOT EVERY PT5M
}
"""


SHORTEST_QUERY = """
REGISTER QUERY routes STARTING AT 2022-08-01T14:45
{
  MATCH p = shortestPath((b:Bike)-[*..4]-(s:Station)) WITHIN PT1H
  EMIT id(b) AS bike, id(s) AS station, length(p) AS hops
  SNAPSHOT EVERY PT5M
}
"""


def _run(engine, query=COUNT_QUERY):
    sink = CollectingSink()
    engine.register(query, sink=sink)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    return sink


class TestEnginePlans:
    def test_plan_compiled_and_reused(self):
        engine = SeraphEngine()
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.physical_plan is not None
        assert registered.counters["plan_compiles"].value >= 1
        stats = engine.plan_cache.stats()
        # 12 evaluations: at least one compile and at least one reuse
        # (the tiny Figure-1 windows drift across power-of-two bands,
        # so several compiles are expected too).
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_plan_rows_accumulate(self):
        engine = SeraphEngine(reference=True)
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.profile.rows  # per-operator totals collected
        assert sum(registered.profile.rows.values()) > 0

    def test_reference_matches_production(self):
        on = _run(SeraphEngine())
        off = _run(SeraphEngine(reference=True))
        assert len(on.emissions) == len(off.emissions)
        for left, right in zip(on.emissions, off.emissions):
            assert left.instant == right.instant
            assert left.table.bag_equals(right.table)

    def test_reference_compiles_one_unhoisted_plan(self):
        engine = SeraphEngine(reference=True)
        _run(engine)
        registered = engine.registered("rentals")
        plan = registered.physical_plan
        assert plan.stages[0].pattern is None  # planned per evaluation
        assert [op.kind for op in plan.operators()] == ["Match", "Aggregate"]
        assert engine.plan_cache.stats()["misses"] == 1
        assert registered.counters["plan_compiles"].value == 1
        assert registered.profile.rows[plan.stages[0].ops["match"]] > 0

    def test_seek_query_counts_index_rows(self):
        engine = SeraphEngine()
        _run(engine, query=SEEK_QUERY)
        registered = engine.registered("anna_rentals")
        seek = registered.physical_plan.stages[0].seek
        assert seek is not None
        assert seek.label == "Station" and seek.key == "id"
        assert registered.profile.rows.get(seek.op_id, 0) > 0

    def test_deregister_evicts_plan(self):
        engine = SeraphEngine()
        _run(engine)
        assert 1 <= len(engine.plan_cache) <= PLANS_PER_QUERY
        engine.deregister("rentals")
        assert len(engine.plan_cache) == 0

    def test_status_planner_section(self):
        engine = SeraphEngine()
        _run(engine)
        planner = engine.status()["planner"]
        # One plan per statistics band visited, a bounded few per query.
        assert 1 <= planner["plans"] <= PLANS_PER_QUERY
        query_info = engine.status()["queries"]["rentals"]
        assert query_info["plan_compiles"] >= 1
        assert query_info["plan_operators"] > 0
        assert "plan_failed" not in query_info  # every query has a plan


class TestExplainPhysical:
    def test_explain_with_graph_shows_operator_tree(self):
        from repro.usecases.micromobility import figure2_graph

        text = explain(SEEK_QUERY, graph=figure2_graph())
        assert "physical    :" in text
        assert "IndexSeek" in text
        assert "ExpandHop" in text

    def test_explain_without_graph_unchanged(self):
        assert "physical" not in explain(COUNT_QUERY)

    def test_explain_analyze_renders_rows(self):
        engine = build_engine(EngineConfig(observability=True))
        _run(engine, query=SEEK_QUERY)
        text = explain_analyze(engine, "anna_rentals")
        assert "physical    :" in text
        assert "IndexSeek" in text
        assert "rows=" in text
        assert "plan_compile" in text  # the compile stage histogram

    def test_explain_analyze_unhoisted_shows_the_opaque_match(self):
        engine = build_engine(EngineConfig(**SLOW_TWIN))
        _run(engine, query=SEEK_QUERY)
        text = explain_analyze(engine, "anna_rentals")
        assert "+- Match(" in text and "IndexSeek" not in text
        assert "rows=" in text

    def test_unified_status_hit_rate(self):
        engine = build_engine(EngineConfig(observability=True))
        _run(engine)
        document = engine.unified_status()
        planner = document["engine"]["planner"]
        assert planner["hit_rate"] > 0.0


class TestShortestPathProfile:
    def test_shortest_path_operator_counts_expanded_relationships(self):
        """``ShortestPath ... rows=`` is the relationships its searches
        expanded (it used to print ``rows=0`` for ever)."""
        engine = SeraphEngine()
        sink = _run(engine, query=SHORTEST_QUERY)
        assert any(len(emission.table) for emission in sink.emissions)
        plan = engine.registered("routes").physical_plan
        (op,) = [op for op in plan.operators() if op.kind == "ShortestPath"]
        expanded = engine.registered("routes").profile.rows[op.op_id]
        assert expanded > 0
        analyzed = explain_analyze(engine, "routes")
        assert f"[op {op.op_id}] rows={expanded}" in analyzed
