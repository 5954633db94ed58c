"""Schema-contract tests: golden key sets, validators, CLI validation.

The unified status document is a published contract (version-stamped,
docs/OBSERVABILITY.md).  These tests pin the *key structure* — values
vary run to run, keys may only change with a schema version bump.
"""

import json

import pytest

from repro import EngineConfig, build_engine
from repro.errors import ObservabilityError
from repro.obs import schema
from repro.obs.export import metrics_document, trace_document
from repro.obs.registry import MetricsRegistry
from repro.obs.schema import (
    SCHEMA_VERSION,
    unified_status,
    validate_document,
    validate_metrics,
    validate_status,
    validate_trace,
)
from repro.obs.trace import Tracer
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

HISTOGRAM_KEYS = {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}

GOLDEN_QUERY_KEYS = {
    "assignments_recomputed", "assignments_retained", "delta",
    "delta_full_refreshes", "delta_reason", "done", "evaluations",
    "next_eval", "plan_compiles", "plan_operators",
    "reused", "warnings",
}

GOLDEN_PLANNER_KEYS = {
    "plans", "hits", "misses", "invalidations",
    "hit_rate",
}

GOLDEN_RESILIENCE_KEYS = {
    "allowed_lateness", "poison_policy", "late_policy", "sink_policy",
    "buffered", "dead_letters", "metrics",
}


def _run(config):
    engine = build_engine(config)
    engine.register(LISTING5_SERAPH)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    return engine


@pytest.fixture(scope="module")
def serial_status():
    return unified_status(_run(EngineConfig(observability=True)))


@pytest.fixture(scope="module")
def resilient_status():
    engine = _run(EngineConfig(observability=True, resilient=True))
    return engine.unified_status()


class TestGoldenStatusShape:
    def test_top_level_sections_are_pinned(self, serial_status):
        assert sorted(serial_status) == [
            "engine", "obs", "resilience", "schema",
        ]
        assert serial_status["schema"] == {
            "name": "repro.status", "version": SCHEMA_VERSION,
        }

    def test_engine_section_keys(self, serial_status):
        engine = serial_status["engine"]
        assert set(engine) == {
            "policy", "mode", "watermark", "shared_window_states", "queries",
            "streams", "planner", "dataflow",
        }
        assert engine["mode"] == "production"
        assert set(engine["dataflow"]) == {
            "streams", "order", "stages", "edges",
        }
        assert set(engine["queries"]) == {"student_trick"}
        assert set(engine["queries"]["student_trick"]) == GOLDEN_QUERY_KEYS
        assert set(engine["streams"]["default"]) == {"head", "retained"}
        assert set(engine["planner"]) == GOLDEN_PLANNER_KEYS

    def test_an_engine_without_an_ingress_has_a_null_resilience(
        self, serial_status
    ):
        assert serial_status["resilience"] is None

    def test_obs_section_names_every_stage_that_ran(self, serial_status):
        obs = serial_status["obs"]
        assert obs["enabled"] is True
        metrics = obs["metrics"]
        counters = set(metrics["counters"])
        base = {
            "engine.evaluations",
            "engine.ingested",
            "engine.stream.default.ingested",
        }
        assert base <= counters
        # Which way each evaluation went (Figure 1: full matches and
        # reuse; Listing 5 is delta-ineligible).
        paths = {name for name in counters
                 if name.startswith("query.student_trick.path.")}
        assert {name for name in paths if metrics["counters"][name]} \
            == {"query.student_trick.path.full",
                "query.student_trick.path.reuse"}
        assert sum(metrics["counters"][name] for name in paths) == 12
        # The query's own ledger — what status() reads.
        ledger = {
            f"query.student_trick.{suffix}"
            for suffix in ("evaluations", "assignments_retained",
                           "assignments_recomputed", "plan_compiles")
        }
        assert ledger <= counters
        assert metrics["counters"]["query.student_trick.evaluations"] == 12
        # The only other counters are per-operator row counts from the
        # physical plan (query.<name>.op.<id>.rows).
        for name in counters - base - paths - ledger:
            assert name.startswith("query.student_trick.op.")
            assert name.endswith(".rows")
        histograms = metrics["histograms"]
        # Figure 1 exercises full matching, reuse and every report stage.
        for stage in ("window_advance", "snapshot_build", "reuse",
                      "match_full", "report", "sink", "total"):
            name = f"query.student_trick.stage.{stage}"
            assert name in histograms
            assert set(histograms[name]) == HISTOGRAM_KEYS
        assert "query.student_trick.rows" in histograms
        assert obs["trace"]["spans"] > 0
        assert obs["trace"]["dropped"] == 0

    def test_resilient_wrapper_fills_the_resilience_section(
        self, resilient_status
    ):
        resilience = resilient_status["resilience"]
        assert set(resilience) == GOLDEN_RESILIENCE_KEYS
        assert resilience["metrics"]["ingested"] == 5
        assert resilience["buffered"] == {"default": 0}
        gauges = resilient_status["obs"]["metrics"]["gauges"]
        assert "resilience.buffer.default.pending" in gauges
        assert "resilience.buffer.default.watermark" in gauges

    def test_both_compositions_validate(self, serial_status,
                                        resilient_status):
        validate_status(serial_status)
        validate_status(resilient_status)

    def test_documents_survive_json_round_trip(self, serial_status):
        validate_status(json.loads(json.dumps(serial_status)))

    def test_disabled_engine_reports_obs_off(self):
        document = unified_status(_run(EngineConfig()))
        assert document["obs"] == {
            "enabled": False, "metrics": None, "trace": None,
        }
        validate_status(document)


class TestValidators:
    @pytest.fixture
    def status(self, serial_status):
        return json.loads(json.dumps(serial_status))

    def test_wrong_schema_name_rejected(self, status):
        status["schema"]["name"] = "repro.trace"
        with pytest.raises(ObservabilityError, match="schema name"):
            validate_status(status)

    def test_wrong_version_rejected(self, status):
        status["schema"]["version"] = SCHEMA_VERSION + 1
        with pytest.raises(ObservabilityError, match="version"):
            validate_status(status)

    def test_missing_sections_rejected(self, status):
        del status["resilience"]
        with pytest.raises(ObservabilityError, match="resilience"):
            validate_status(status)

    def test_query_missing_counters_rejected(self, status):
        del status["engine"]["queries"]["student_trick"]["delta"]
        with pytest.raises(ObservabilityError, match="delta"):
            validate_status(status)

    def test_unknown_engine_mode_rejected(self, status):
        status["engine"]["mode"] = "columnar"
        with pytest.raises(ObservabilityError, match="engine mode"):
            validate_status(status)
        del status["engine"]["mode"]  # a document from before the key
        validate_status(status)

    def test_documents_from_the_pool_era_still_validate(self, status):
        """Documents written while the engine had a process pool carry
        ``parallel`` and ``supervision`` sections: null without a pool,
        the pool's counters with one.  Neither is required or checked."""
        validate_status(status)  # written now: neither section
        status["parallel"] = status["supervision"] = None
        validate_status(status)
        status["parallel"] = {"workers": 2, "offloaded_evaluations": 0}
        status["supervision"] = {"mode": "pooled", "workers": 2}
        validate_status(status)

    def test_boolean_counter_rejected(self, status):
        status["obs"]["metrics"]["counters"]["engine.ingested"] = True
        with pytest.raises(ObservabilityError, match="not an integer"):
            validate_status(status)

    def test_metrics_document_validates(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.observe("latency", 0.1)
        validate_metrics(metrics_document(registry))

    def test_metrics_histogram_missing_quantile_rejected(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.1)
        document = metrics_document(registry)
        del document["histograms"]["latency"]["p95"]
        with pytest.raises(ObservabilityError, match="p95"):
            validate_metrics(document)

    def test_trace_negative_duration_rejected(self):
        tracer = Tracer()
        tracer.start("evaluate").finish()
        document = trace_document(tracer)
        document["spans"][0]["duration"] = -1.0
        with pytest.raises(ObservabilityError, match="negative"):
            validate_trace(document)

    def test_trace_child_spans_are_checked_recursively(self):
        tracer = Tracer()
        root = tracer.start("evaluate")
        tracer.start("report", parent=root).finish()
        root.finish()
        document = trace_document(tracer)
        del document["spans"][0]["children"][0]["tags"]
        with pytest.raises(ObservabilityError, match=r"0\.0"):
            validate_trace(document)

    def test_validate_document_dispatches_on_the_stamp(self, status):
        assert validate_document(status) == "repro.status"
        registry = MetricsRegistry()
        assert validate_document(metrics_document(registry)) \
            == "repro.metrics"
        assert validate_document(trace_document(Tracer())) == "repro.trace"

    def test_validate_document_rejects_unknown_schema(self):
        document = {"schema": {"name": "repro.unknown",
                               "version": SCHEMA_VERSION}}
        with pytest.raises(ObservabilityError, match="unknown schema"):
            validate_document(document)

    def test_validate_document_rejects_unstamped_input(self):
        with pytest.raises(ObservabilityError, match="schema"):
            validate_document({"engine": {}})


class TestCommandLineValidator:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_valid_files_report_ok(self, tmp_path, capsys, serial_status):
        registry = MetricsRegistry()
        registry.inc("hits")
        paths = [
            self._write(tmp_path, "status.json", serial_status),
            self._write(tmp_path, "metrics.json",
                        metrics_document(registry)),
            self._write(tmp_path, "trace.json", trace_document(Tracer())),
        ]
        assert schema.main(paths) == 0
        out = capsys.readouterr().out
        assert f"OK {paths[0]} (repro.status v{SCHEMA_VERSION})" in out
        assert "repro.metrics" in out
        assert "repro.trace" in out

    def test_invalid_file_fails_without_stopping_the_batch(
        self, tmp_path, capsys, serial_status
    ):
        bad = self._write(tmp_path, "bad.json", {"schema": {"name": "x"}})
        good = self._write(tmp_path, "good.json", serial_status)
        assert schema.main([bad, good]) == 1
        captured = capsys.readouterr()
        assert f"FAIL {bad}" in captured.err
        assert f"OK {good}" in captured.out

    def test_unreadable_and_non_json_files_fail(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        missing = str(tmp_path / "missing.json")
        assert schema.main([str(garbled), missing]) == 1
        assert capsys.readouterr().err.count("FAIL") == 2
