"""Unified observability: tracing + metrics registry for every layer.

A :class:`~repro.seraph.engine.SeraphEngine` and its part (the ingress)
share one :class:`Observability` bundle — a
:class:`~repro.obs.trace.Tracer` plus a
:class:`~repro.obs.registry.MetricsRegistry` — threaded through
construction (``build_engine(EngineConfig(observability=True))``).

One evaluation produces one ``evaluate`` root span with the stage
children::

    evaluate(query, instant)
      ├─ window_advance
      ├─ snapshot_build          (per window, inside the match stage)
      ├─ reuse | match_full
      ├─ report
      ├─ sink
      │   └─ sink_attempt*       (retries, from ResilientSink)
      └─ materialize             (``EMIT ... INTO`` producers only)

``ingest`` spans are separate roots; with ``EMIT ... INTO`` chaining,
each dataflow stage adds a ``dataflow_stage`` root.  Stage durations also feed per-query histograms in
the registry under :func:`stage_metric` names — that is what ``EXPLAIN
ANALYZE`` (:func:`repro.seraph.explain.explain_analyze`) reads.

The registry is always real: every engine counts into its own, and
``status()`` reads it.  ``enabled`` switches tracing — spans and the
stage-timing histograms; when it is off (the default)
:meth:`Observability.stage` hands every instrumented site the shared
no-op span.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
)

#: Stage names in pipeline order (trace span names == stage names).
STAGES = (
    "window_advance",
    "snapshot_build",
    "plan_compile",
    "reuse",
    "match_full",
    "report",
    "sink",
    "materialize",
    "total",
)


def stage_metric(query_name: str, stage: str) -> str:
    """Registry histogram name of one query's stage timings (seconds)."""
    return f"query.{query_name}.stage.{stage}"


@dataclass
class Observability:
    """The bundle every engine layer carries: tracer + registry."""

    tracer: Tracer
    registry: MetricsRegistry
    enabled: bool = True

    @classmethod
    def create(cls, span_limit: int = 100_000,
               reservoir: int = 512) -> "Observability":
        return cls(
            tracer=Tracer(limit=span_limit),
            registry=MetricsRegistry(reservoir=reservoir),
            enabled=True,
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """Tracing off, a registry of its own (counters always count)."""
        return cls(tracer=NOOP_TRACER, registry=MetricsRegistry(),
                   enabled=False)

    def record_stage(self, query_name: str, stage: str,
                     seconds: float) -> None:
        self.registry.observe(stage_metric(query_name, stage), seconds)

    def stage(self, query_name: str, stage: str, parent=None, **tags):
        """One instrumented site: a span named ``stage`` under ``parent``
        whose duration also lands in the query's stage histogram.  With
        tracing off, the shared no-op span."""
        if not self.enabled:
            return NOOP_SPAN
        return self._timed_stage(query_name, stage, parent, tags)

    @contextmanager
    def _timed_stage(self, query_name, stage, parent, tags):
        with self.tracer.span(stage, parent=parent, **tags) as span:
            yield span
        self.record_stage(query_name, stage, span.duration_seconds)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopTracer",
    "Observability",
    "STAGES",
    "Span",
    "Tracer",
    "stage_metric",
]
