"""Cross-layer observability: the evaluation stage ladder, sink
retries, reorder gauges, EXPLAIN ANALYZE.

These are the acceptance scenarios of the observability layer: every
evaluation is one ``evaluate`` root with its stages as children, retry
spans land under the engine's sink span, and the analyze output reads
the same histograms the exporters publish.
"""

import random

import pytest

from repro import EngineConfig, build_engine
from repro.errors import EngineError
from repro.graph.generators import random_stream
from repro.obs import Observability
from repro.runtime import Ingress
from repro.runtime.faults import FailureSchedule, FlakySink
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import CollectingSink, SeraphEngine, explain_analyze
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

# shortestPath is delta-ineligible, so every evaluation that is not a
# reuse takes the full path.
FULL_PATH_QUERY = """
REGISTER QUERY paths STARTING AT 1970-01-01T00:00
{
  MATCH p = shortestPath((a)-[*..3]->(b)) WITHIN PT5M
  WHERE id(a) <> id(b)
  EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY PT1M
}
"""
PATH_STAGES = ("reuse", "match_delta", "match_full")


@pytest.fixture(scope="module")
def elements():
    return random_stream(
        random.Random(3), num_events=4, period=60, start=0,
        nodes_per_event=3, relationships_per_event=3, shared_node_pool=5,
    )


class TestEvaluationStages:
    @pytest.fixture(scope="class")
    def traced(self, elements):
        engine = SeraphEngine(obs=Observability.create())
        sink = CollectingSink()
        engine.register(FULL_PATH_QUERY, sink=sink)
        engine.run_stream(elements)
        return engine, sink

    def test_traced_run_matches_the_untraced_engine(self, traced, elements):
        engine, sink = traced
        plain = SeraphEngine()
        plain_sink = CollectingSink()
        plain.register(FULL_PATH_QUERY, sink=plain_sink)
        plain.run_stream(elements)
        assert [e.render() for e in sink.emissions] \
            == [e.render() for e in plain_sink.emissions]

    def test_every_evaluate_root_carries_its_stage_ladder(self, traced):
        engine, sink = traced
        roots = [root for root in engine.obs.tracer.roots
                 if root.name == "evaluate"]
        assert len(roots) == len(sink.emissions)
        for root in roots:
            names = [child.name for child in root.children]
            assert names[0] == "window_advance"
            assert names[-1] == "sink"
            (path,) = [name for name in names if name in PATH_STAGES]
            assert root.tags["path"] == {"match_full": "full"}.get(path, path)
            for child in root.children:
                assert root.start <= child.start <= child.end <= root.end

    def test_full_path_stage_feeds_the_registry(self, traced):
        engine, sink = traced
        registry = engine.obs.registry
        full = registry.value("query.paths.path.full")
        assert full >= 1
        assert registry.get("query.paths.stage.match_full").count == full
        assert full + registry.value("query.paths.path.reuse") \
            == len(sink.emissions)

    def test_analyze_reports_the_match_stage(self, traced):
        engine, _ = traced
        text = explain_analyze(engine, "paths")
        assert "  analyze     :" in text
        assert "match_full: n=" in text


class TestSinkRetrySpans:
    @pytest.fixture
    def flaky_run(self):
        flaky = FlakySink(FailureSchedule.first(2))
        engine = SeraphEngine(
            obs=Observability.create(),
            ingress=Ingress(retry=RetryPolicy(max_attempts=4, seed=3),
                            sleep=lambda _: None),
        )
        engine.register(LISTING5_SERAPH, sink=flaky)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        return engine, flaky

    def test_retries_nest_under_the_engines_sink_span(self, flaky_run):
        engine, flaky = flaky_run
        tracer = engine.obs.tracer
        attempts = tracer.find("sink_attempt")
        assert len(attempts) == flaky.failures + len(flaky.delivered)
        for attempt in attempts:
            assert attempt.tags["outcome"] in {"delivered", "error"}
        # Every attempt is a child of a sink stage span, never a root.
        sinks = tracer.find("sink")
        nested = [child for span in sinks for child in span.children
                  if child.name == "sink_attempt"]
        assert sorted(map(id, nested)) == sorted(map(id, attempts))

    def test_the_flaky_evaluation_shows_the_full_retry_story(
        self, flaky_run
    ):
        engine, _ = flaky_run
        (retried,) = [span for span in engine.obs.tracer.find("sink")
                      if len(span.children) == 3]
        outcomes = [child.tags["outcome"] for child in retried.children]
        errors = [child.tags.get("error") for child in retried.children]
        assert outcomes == ["error", "error", "delivered"]
        assert errors[0] == "InjectedSinkFailure"
        attempts = [child.tags["attempt"] for child in retried.children]
        assert attempts == [1, 2, 3]


class TestResilienceMetricsBridge:
    def test_reorder_buffer_publishes_gauges(self):
        engine = build_engine(EngineConfig(
            resilient=True, allowed_lateness=3600, observability=True,
        ))
        engine.register(LISTING5_SERAPH)
        stream = figure1_stream()
        shuffled = [stream[1], stream[0]] + stream[2:]
        engine.run_stream(shuffled, until=_t("15:40"))
        registry = engine.obs.registry
        assert registry.value("resilience.reordered") > 0
        pending = registry.get("resilience.buffer.default.pending")
        watermark = registry.get("resilience.buffer.default.watermark")
        assert pending is not None and watermark is not None
        # The gauge mirrors the live buffer depth.
        assert pending.value \
            == engine.status()["resilience"]["buffered"]["default"]

    def test_poison_rejections_are_counted(self):
        engine = build_engine(EngineConfig(
            resilient=True, observability=True,
        ))
        engine.register(LISTING5_SERAPH)
        engine.run_stream(["{this is not json"])
        assert len(engine.dead_letters) == 1
        assert engine.obs.registry.counter(
            "resilience.poison_rejected"
        ).value == 1


class TestSpanLimit:
    def test_a_full_tracer_drops_spans_not_emissions(self):
        plain = build_engine(EngineConfig())
        plain.register(LISTING5_SERAPH)
        expected = plain.run_stream(figure1_stream(), until=_t("15:40"))
        engine = build_engine(EngineConfig(observability=True,
                                           span_limit=10))
        engine.register(LISTING5_SERAPH)
        emissions = engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert [e.render() for e in emissions] == \
            [e.render() for e in expected]
        assert engine.obs.tracer.created == 10
        assert engine.obs.tracer.dropped > 0


class TestExplainAnalyze:
    def test_enabled_engine_reports_observed_stages(self):
        engine = build_engine(EngineConfig(observability=True))
        engine.register(LISTING5_SERAPH)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        text = explain_analyze(engine, "student_trick")
        assert text.startswith("ContinuousQuery student_trick")
        assert "  analyze     :" in text
        for stage in ("window_advance", "match_full", "reuse",
                      "report", "sink", "total"):
            assert f"{stage}: n=" in text
        assert "p95=" in text

    def test_wrapper_is_unwrapped_transparently(self):
        engine = build_engine(EngineConfig(
            resilient=True, observability=True,
        ))
        engine.register(LISTING5_SERAPH)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert "total: n=" in explain_analyze(engine, "student_trick")

    def test_before_any_evaluation_says_so(self):
        engine = build_engine(EngineConfig(observability=True))
        engine.register(LISTING5_SERAPH)
        text = explain_analyze(engine, "student_trick")
        assert "(no evaluations observed yet)" in text

    def test_disabled_engine_gets_the_plan_plus_a_hint(self):
        engine = build_engine(EngineConfig())
        engine.register(LISTING5_SERAPH)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        text = explain_analyze(engine, "student_trick")
        assert "observability disabled" in text
        assert "EngineConfig(observability=True)" in text

    def test_unknown_query_raises(self):
        engine = build_engine(EngineConfig(observability=True))
        with pytest.raises(EngineError, match="not registered"):
            explain_analyze(engine, "missing")
