"""One engine, one ledger.

Two contracts of the engine that owns its parts:

* the **shape** of ``status()`` / ``unified_status()`` on every stack is
  the one the wrapper/subclass stacks produced before they became parts
  (key paths written out here, not imported: a refactor that drops or
  renames one fails this test first);
* every count a status view shows **is** the registry instrument of the
  same name — nothing is counted in two places — and a Prometheus export
  of the registry therefore carries the resilience counters that used
  to live in objects the exporter never saw.
"""

import pytest

from repro import EngineConfig, build_engine
from repro.obs.export import parse_prometheus, to_prometheus
from repro.runtime import ChaosConfig
from repro.runtime.ingress import Ingress
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import SeraphEngine
from repro.service.tenants import TenantSpec, TenantState
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

from .modes import STACKS

ENGINE_PATHS = {
    "dataflow", "dataflow.edges", "dataflow.order", "dataflow.stages",
    "dataflow.stages.student_trick", "dataflow.streams", "mode",
    "planner", "planner.hit_rate",
    "planner.hits", "planner.invalidations", "planner.misses",
    "planner.plans", "policy", "queries",
    "queries.student_trick",
    "queries.student_trick.assignments_recomputed",
    "queries.student_trick.assignments_retained",
    "queries.student_trick.delta",
    "queries.student_trick.delta_full_refreshes",
    "queries.student_trick.delta_reason", "queries.student_trick.done",
    "queries.student_trick.evaluations", "queries.student_trick.next_eval",
    "queries.student_trick.plan_compiles",
    "queries.student_trick.plan_operators", "queries.student_trick.reused",
    "queries.student_trick.warnings", "shared_window_states", "streams",
    "streams.default", "streams.default.head", "streams.default.retained",
    "watermark",
}
RESILIENCE_PATHS = {
    "resilience", "resilience.allowed_lateness", "resilience.buffered",
    "resilience.buffered.default", "resilience.dead_letters",
    "resilience.late_policy", "resilience.metrics",
    "resilience.metrics.breaker_opens", "resilience.metrics.checkpoints",
    "resilience.metrics.dead_lettered",
    "resilience.metrics.fallback_deliveries", "resilience.metrics.ingested",
    "resilience.metrics.late_dropped", "resilience.metrics.late_events",
    "resilience.metrics.poison_rejected",
    "resilience.metrics.poison_skipped", "resilience.metrics.reordered",
    "resilience.metrics.restores", "resilience.metrics.retried",
    "resilience.metrics.short_circuited",
    "resilience.metrics.sink_deliveries", "resilience.metrics.sink_failures",
    "resilience.poison_policy", "resilience.sink_policy",
}
#: Always present in the unified document; ``resilience`` is an
#: explicit null on an engine without an ingress.
UNIFIED_FRAME = {
    "schema", "schema.name", "schema.version", "engine", "resilience",
    "obs", "obs.enabled", "obs.metrics", "obs.trace",
}


def key_paths(document, prefix=""):
    paths = set()
    for key, value in document.items():
        paths.add(f"{prefix}{key}")
        if isinstance(value, dict):
            paths |= key_paths(value, f"{prefix}{key}.")
    return paths


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_status_key_paths_are_the_parents_on_every_stack(stack):
    parts = set()
    if STACKS[stack].get("resilient"):
        parts |= RESILIENCE_PATHS
    engine = build_engine(EngineConfig(**STACKS[stack]))
    engine.register(LISTING5_SERAPH)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    assert key_paths(engine.status()) == ENGINE_PATHS | parts
    unified = engine.unified_status()
    assert key_paths(unified) == (
        UNIFIED_FRAME | parts | {f"engine.{path}" for path in ENGINE_PATHS}
    )
    assert unified["obs"] == {"enabled": False, "metrics": None,
                              "trace": None}


class TestEveryStatusCountIsARegistryRead:
    """A seeded disordered, poison-carrying, sink-failing run."""

    @pytest.fixture(scope="class")
    def engine(self):
        chaos = ChaosConfig(
            seed=13, source_poison_rate=0.3, source_displace_rate=0.4,
            sink_failure_rate=0.2,
        )
        engine = SeraphEngine(
            ingress=Ingress(
                allowed_lateness=1200, chaos=chaos, sleep=lambda _s: None,
                retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                                  max_delay=0.0, jitter=0.0),
            ),
        )
        engine.register(LISTING5_SERAPH)
        # On top of the seeded displacement: two swaps inside the
        # allowed lateness and one arrival far beyond it.
        s = figure1_stream()
        too_late = StreamElement(graph=s[0].graph, instant=_t("14:00"))
        engine.run_stream(
            [s[1], s[0], s[2], s[4], s[3], too_late], until=_t("15:40")
        )
        engine.checkpoint()
        return engine

    def test_the_run_exercised_every_layer(self, engine):
        status = engine.status()
        resilience = status["resilience"]["metrics"]
        assert resilience["reordered"] >= 1
        assert resilience["late_dropped"] >= 1
        assert resilience["poison_rejected"] >= 1
        assert resilience["sink_failures"] >= 1
        assert resilience["sink_deliveries"] >= 1
        assert resilience["checkpoints"] == 1

    def test_resilience_and_query_views(self, engine):
        registry = engine.obs.registry
        status = engine.status()
        for name, value in status["resilience"]["metrics"].items():
            assert value == registry.value(f"resilience.{name}"), name
        for key, suffix in (("evaluations", "evaluations"),
                            ("reused", "path.reuse"),
                            ("plan_compiles", "plan_compiles")):
            assert status["queries"]["student_trick"][key] \
                == registry.value(f"query.student_trick.{suffix}"), key

    def test_prometheus_export_carries_the_layer_counters(self, engine):
        samples = parse_prometheus(to_prometheus(engine.obs.registry))
        status = engine.status()
        for metric, value in (
            ("repro_resilience_reordered_total",
             status["resilience"]["metrics"]["reordered"]),
            ("repro_resilience_late_dropped_total",
             status["resilience"]["metrics"]["late_dropped"]),
            ("repro_resilience_sink_deliveries_total",
             status["resilience"]["metrics"]["sink_deliveries"]),
            ("repro_resilience_retried_total",
             status["resilience"]["metrics"]["retried"]),
        ):
            assert samples[metric][""] == value, metric


def test_tenant_service_metrics_are_registry_reads():
    tenant = TenantState(TenantSpec(name="acme"))
    tenant.register_query(LISTING5_SERAPH)
    for element in figure1_stream():
        tenant.push(element)
    tenant.advance(_t("15:40"))
    tenant.checkpoint()
    metrics = tenant.service_status()["metrics"]
    assert metrics["events"] == 5 and metrics["emissions"] == 12
    assert metrics["checkpoints"] == 1
    for name, value in metrics.items():
        assert value == tenant.obs.registry.value(
            f"service.tenant.acme.{name}"), name
