"""Engine-level physical plan integration.

The engine compiles each registered query once (per statistics band),
executes the compiled plan on full evaluations, feeds its pre-planned
pattern to the delta path, and surfaces compiles / cache hit-rate /
per-operator row counts through ``status()`` and ``EXPLAIN ANALYZE``.
``physical_plans=False`` restores the interpreted pipeline with
identical results.
"""

import pytest

from repro import EngineConfig, build_engine
from repro.cypher import physical as physical_module
from repro.cypher.plan_cache import PLANS_PER_QUERY
from repro.errors import PhysicalPlanError
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.explain import explain, explain_analyze
from repro.usecases.micromobility import _t, figure1_stream

SEEK_QUERY = """
REGISTER QUERY anna_rentals STARTING AT 2022-08-01T14:45
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station {id: 1}) WITHIN PT1H
  EMIT id(b) AS bike, r.user_id AS user
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
        engine = SeraphEngine(delta_eval=False)
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.plan_rows  # per-operator totals collected
        assert sum(registered.plan_rows.values()) > 0

    def test_physical_off_matches_physical_on(self):
        on = _run(SeraphEngine(physical_plans=True))
        off = _run(SeraphEngine(physical_plans=False))
        assert len(on.emissions) == len(off.emissions)
        for left, right in zip(on.emissions, off.emissions):
            assert left.instant == right.instant
            assert left.table.bag_equals(right.table)

    def test_physical_off_never_compiles(self):
        engine = SeraphEngine(physical_plans=False)
        _run(engine)
        assert engine.registered("rentals").physical_plan is None
        assert engine.plan_cache.stats()["misses"] == 0

    def test_seek_query_counts_index_rows(self):
        engine = SeraphEngine(delta_eval=False)
        _run(engine, query=SEEK_QUERY)
        registered = engine.registered("anna_rentals")
        seek = registered.physical_plan.stages[0].seek
        assert seek is not None
        assert seek.label == "Station" and seek.key == "id"
        assert registered.plan_rows.get(seek.op_id, 0) > 0

    def test_compile_failure_falls_back_to_interpreted(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise PhysicalPlanError("forced")

        monkeypatch.setattr(physical_module, "compile_query", boom)
        monkeypatch.setattr(
            "repro.cypher.plan_cache.compile_query", boom
        )
        engine = SeraphEngine()
        sink = _run(engine)
        registered = engine.registered("rentals")
        assert registered.plan_failed
        assert registered.physical_plan is None
        reference = _run(SeraphEngine(physical_plans=False))
        assert [e.render() for e in sink.emissions] == \
            [e.render() for e in reference.emissions]

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
        assert planner["physical_plans"] is True
        # One plan per statistics band visited, a bounded few per query.
        assert 1 <= planner["plans"] <= PLANS_PER_QUERY
        query_info = engine.status()["queries"]["rentals"]
        assert query_info["plan_compiles"] >= 1
        assert query_info["plan_operators"] > 0
        assert query_info["plan_failed"] is False


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
        engine = build_engine(EngineConfig(observability=True,
                                           delta_eval=False))
        _run(engine, query=SEEK_QUERY)
        text = explain_analyze(engine, "anna_rentals")
        assert "physical    :" in text
        assert "IndexSeek" in text
        assert "rows=" in text
        assert "plan_compile" in text  # the compile stage histogram

    def test_explain_analyze_interpreted_fallback_note(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise PhysicalPlanError("forced")

        monkeypatch.setattr(
            "repro.cypher.plan_cache.compile_query", boom
        )
        engine = build_engine(EngineConfig(observability=True))
        _run(engine)
        assert "interpreted fallback" in explain_analyze(engine, "rentals")

    def test_unified_status_hit_rate(self):
        engine = build_engine(EngineConfig(observability=True))
        _run(engine)
        document = engine.unified_status()
        planner = document["engine"]["planner"]
        assert planner["hit_rate"] > 0.0


def _pooled():
    from repro.runtime.parallel import PoolExecutor

    return SeraphEngine(
        delta_eval=False,
        executor=PoolExecutor(2, offload_threshold=0.0),
    )


class TestParallelPlans:
    def test_offloaded_evaluations_report_plan_rows(self):
        with _pooled() as engine:
            sink = _run(engine)
        assert sink.emissions
        registered = engine.registered("rentals")
        assert engine.status()["parallel"]["offloaded_evaluations"] > 0
        assert registered.physical_plan is not None
        assert sum(registered.plan_rows.values()) > 0

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = _run(SeraphEngine(delta_eval=False))
        with _pooled() as engine:
            parallel = _run(engine)
        assert [e.render() for e in parallel.emissions] == \
            [e.render() for e in serial.emissions]
