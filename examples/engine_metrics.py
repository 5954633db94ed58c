#!/usr/bin/env python3
"""Observed engine run: latency, throughput, and reuse statistics.

Runs the fraud-detection query over a synthetic RideAnywhere day and
prints the measurements a systems evaluation would report — comparing
the production engine (incremental snapshots, unchanged-window reuse,
one compiled plan per query) with its from-scratch reference twin.

Run:  python examples/engine_metrics.py
"""

from repro import EngineConfig, build_engine
from repro.api import REFERENCE_MODE
from repro.obs import stage_metric
from repro.usecases.micromobility import (
    RentalStreamConfig,
    RentalStreamGenerator,
    student_trick_query,
)


def run(reference: bool, stream) -> str:
    """One observed run; the report is read off the engine's registry."""
    modes = REFERENCE_MODE if reference else {}
    engine = build_engine(EngineConfig(**modes, observability=True))
    name = engine.register(student_trick_query(every="PT1M")).name
    engine.run_stream(stream)
    registry = engine.obs.registry
    latency = registry.histogram(stage_metric(name, "total"))
    rows = registry.histogram(f"query.{name}.rows")
    evaluations = registry.value(f"query.{name}.evaluations")
    assert evaluations == latency.count == rows.count
    return (
        f"{evaluations} evaluations over "
        f"{registry.value('engine.ingested')} events, "
        f"{latency.total:.3f}s evaluating; "
        f"mean latency {latency.mean * 1000:.2f}ms, "
        f"p95 {latency.percentile(0.95) * 1000:.2f}ms; "
        f"{int(rows.total)} rows emitted; "
        f"reuse ratio "
        f"{registry.value(f'query.{name}.path.reuse') / evaluations:.0%}; "
        f"full-match ratio "
        f"{registry.value(f'query.{name}.path.full') / evaluations:.0%}"
    )


def main():
    generator = RentalStreamGenerator(
        RentalStreamConfig(events=24, seed=7, stations=12, users=30,
                           vehicles=35)
    )
    stream = generator.stream()
    print(f"Workload: {len(stream)} events, "
          f"{sum(e.graph.size for e in stream)} rentals/returns, "
          f"{len(generator.fraud_users)} planted fraudster(s); "
          "evaluation every minute, window 1h.\n")

    for reference in (True, False):
        label = "reference twin" if reference else "production    "
        print(f"{label}: {run(reference, stream)}")

    print("\n(Production skips re-evaluation whenever no window content "
          "changed since the last ET instant — identical emissions, lower "
          "mean latency; tests/modes.py runs both against the "
          "denotational semantics.)")


if __name__ == "__main__":
    main()
