#!/usr/bin/env python3
"""Instrumented engine run: latency, throughput, and reuse statistics.

Runs the fraud-detection query over a synthetic RideAnywhere day and
prints the measurements a systems evaluation would report — comparing
the engine with and without the unchanged-window reuse optimization
(the P7 experiment, interactively).

Run:  python examples/engine_metrics.py
"""

from repro import EngineConfig, build_engine, instrumented_run
from repro.usecases.micromobility import (
    RentalStreamConfig,
    RentalStreamGenerator,
    student_trick_query,
)


def run(reuse: bool, stream):
    engine = build_engine(EngineConfig(reuse_unchanged_windows=reuse))
    engine.register(student_trick_query(every="PT1M"))
    return instrumented_run(engine, stream)


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

    for reuse in (False, True):
        report = run(reuse, stream)
        label = "with reuse   " if reuse else "without reuse"
        print(f"{label}: {report.render()}")

    print("\n(The reuse arm skips re-evaluation whenever no event arrived "
          "since the last ET instant — identical emissions, lower mean "
          "latency; tests/seraph/test_extensions.py pins the "
          "transparency.)")


if __name__ == "__main__":
    main()
