#!/usr/bin/env python3
"""Observability tour: one traced, metered engine run end to end.

Builds the full stack through the unified front door
(:func:`repro.build_engine`), runs the paper's fraud-detection workload,
and then walks every observability surface:

* ``EXPLAIN ANALYZE`` — the static plan plus observed stage timings;
* the trace — one ``evaluate`` span tree per evaluation, with the
  window-advance / match / report / sink stages as children;
* the metrics registry — counters and stage histograms, exported as a
  schema-stamped JSON document and as Prometheus exposition text.

Run:  python examples/observability.py
"""

import json
import os
import tempfile

from repro import EngineConfig, build_engine
from repro.obs.export import (
    metrics_document,
    to_prometheus,
    trace_document,
    write_json,
)
from repro.obs.schema import validate_metrics, validate_status, validate_trace
from repro.seraph import explain_analyze
from repro.usecases.micromobility import (
    RentalStreamConfig,
    RentalStreamGenerator,
    student_trick_query,
)


def main():
    engine = build_engine(EngineConfig(
        resilient=True,
        observability=True,
    ))
    engine.register(student_trick_query(every="PT5M"))

    generator = RentalStreamGenerator(
        RentalStreamConfig(events=40, seed=11, stations=10, users=20,
                           vehicles=24)
    )
    emissions = engine.run_stream(generator.stream())
    print(f"Ran {len(emissions)} emissions with observability on.\n")

    # 1. EXPLAIN ANALYZE: the plan annotated with observed timings.
    print(explain_analyze(engine, "student_trick"))

    # 2. The trace: span trees covering every evaluation.
    tracer = engine.obs.tracer
    roots = tracer.to_dicts()
    evaluates = [root for root in roots if root["name"] == "evaluate"]
    print(f"\nTrace: {tracer.created} spans in {len(roots)} roots "
          f"({len(evaluates)} evaluations, {tracer.dropped} dropped)")
    first = evaluates[0]
    print(f"first evaluation ({first['tags']}):")
    for child in first["children"]:
        print(f"  - {child['name']}: {child['duration'] * 1000:.3f}ms "
              f"{child['tags'] or ''}")

    # 3. The documents: status, metrics, trace — all schema-validated.
    status = engine.unified_status()
    validate_status(status)
    metrics = metrics_document(engine.obs.registry)
    validate_metrics(metrics)
    trace = trace_document(tracer)
    validate_trace(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(os.path.join(tmp, "metrics.json"), metrics)
        size = os.path.getsize(path)
    print(f"\nDocuments validate: status (sections "
          f"{sorted(status)}), metrics ({size} bytes on disk), "
          f"trace ({trace['span_count']} spans)")

    # 4. Prometheus exposition, ready to scrape.
    exposition = to_prometheus(engine.obs.registry)
    counters = [line for line in exposition.splitlines()
                if line.endswith("_total") or "_total " in line]
    print("\nPrometheus counters:")
    for line in counters:
        if not line.startswith("#"):
            print(f"  {line}")

    engine_section = status["engine"]["queries"]["student_trick"]
    print(f"\nUnified status: {engine_section['evaluations']} evaluations, "
          f"{engine_section['delta']} via the delta path; "
          f"resilience ingested "
          f"{status['resilience']['metrics']['ingested']} elements.")


if __name__ == "__main__":
    main()
