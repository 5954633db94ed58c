"""Tests for the per-run ledger an engine keeps, and the JSONL sink."""

import io
import json

import pytest

from repro import EngineConfig, build_engine
from repro.obs import stage_metric
from repro.seraph import SeraphEngine
from repro.seraph.sinks import JsonlSink
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream


class TestRunLedger:
    """What ``instrumented_run`` / ``RunReport`` used to sample is what
    an observed engine records by itself: per-evaluation latency in
    ``query.<q>.stage.total``, rows in ``query.<q>.rows``, the path each
    evaluation took in ``query.<q>.path.*``."""

    @pytest.fixture
    def registry(self):
        engine = build_engine(EngineConfig(observability=True))
        engine.register(LISTING5_SERAPH)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        return engine.obs.registry

    def test_counts(self, registry):
        assert registry.value("engine.evaluations") == 12
        assert registry.value("engine.ingested") == 5
        rows = registry.histogram("query.student_trick.rows")
        assert rows.count == 12
        assert rows.total == 2  # Tables 5 and 6

    def test_latencies_positive_and_ordered(self, registry):
        latency = registry.histogram(stage_metric("student_trick", "total"))
        assert latency.count == 12
        assert latency.mean > 0
        assert latency.percentile(0.5) <= latency.percentile(1.0)
        assert latency.total >= latency.mean

    def test_reuse_observed_on_quiet_instants(self, registry):
        # 12 evaluations, 5 arrivals: most evaluations reuse.
        reused = registry.value("query.student_trick.path.reuse")
        assert reused / registry.value("query.student_trick.evaluations") \
            > 0.4

    def test_every_evaluation_took_exactly_one_path(self, registry):
        paths = sum(
            counter.value for _name, counter
            in registry.under("query.student_trick.path.")
        )
        assert paths == registry.value("query.student_trick.evaluations")

    def test_out_of_range_percentile_raises(self, registry):
        from repro.errors import MetricsError

        latency = registry.histogram(stage_metric("student_trick", "total"))
        with pytest.raises(MetricsError, match="got 1.5"):
            latency.percentile(1.5)

    def test_the_counters_count_with_tracing_off_too(self):
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH)
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        registry = engine.obs.registry
        assert registry.value("engine.evaluations") == 12
        assert registry.value("query.student_trick.evaluations") == 12
        assert registry.get(stage_metric("student_trick", "total")) is None

    def test_multiple_queries_keep_separate_ledgers(self):
        engine = build_engine(EngineConfig(observability=True))
        engine.register(LISTING5_SERAPH)
        engine.register(
            LISTING5_SERAPH.replace("student_trick", "second"),
        )
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        registry = engine.obs.registry
        assert registry.value("engine.evaluations") == 24
        for name in ("student_trick", "second"):
            assert registry.value(f"query.{name}.evaluations") == 12
            assert registry.histogram(stage_metric(name, "total")).count == 12


class TestJsonlSink:
    def test_writes_one_line_per_non_empty_emission(self):
        buffer = io.StringIO()
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH, sink=JsonlSink(buffer))
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["query"] == "student_trick"
        assert first["instant"] == _t("15:15")
        assert first["rows"][0]["user_id"] == 1234
        assert first["win_start"] == _t("14:15")

    def test_includes_empty_on_request(self):
        buffer = io.StringIO()
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH,
                        sink=JsonlSink(buffer, skip_empty=False))
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert len(buffer.getvalue().splitlines()) == 12

    def test_entities_reduced_to_ids(self):
        buffer = io.StringIO()
        engine = SeraphEngine()
        engine.register(
            """
            REGISTER QUERY entities STARTING AT 2022-08-01T15:40
            { MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT2H
              EMIT b, r, s SNAPSHOT EVERY PT5M }
            """,
            sink=JsonlSink(buffer),
        )
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        row = json.loads(buffer.getvalue().splitlines()[0])["rows"][0]
        assert "node" in row["b"] and "relationship" in row["r"]

    def test_file_target(self, tmp_path):
        path = tmp_path / "out.jsonl"
        engine = SeraphEngine()
        with JsonlSink(str(path)) as sink:
            engine.register(LISTING5_SERAPH, sink=sink)
            engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert len(path.read_text().splitlines()) == 2
