#!/usr/bin/env python3
"""The fault-tolerant ingress on the paper's running example.

Takes the Figure 1 rental stream and degrades it the way real feeds
degrade — malformed payloads, events arriving out of order, a sink
that fails transiently — then runs Listing 5 on an engine that owns a
:class:`repro.runtime.Ingress` and shows that the emissions still match
the clean run:

1. **poison quarantine** — undecodable payloads land in a replayable
   dead-letter queue instead of aborting the run;
2. **bounded out-of-order tolerance** — a reorder buffer with allowed
   lateness re-sequences displaced events before ingestion;
3. **sink retry + circuit breaker** — a flaky sink that fails three
   times recovers without losing a single emission;
4. **checkpoint/restore** — the run is interrupted mid-stream,
   serialized to JSON, and finished by a fresh process-equivalent.

Run:  python examples/resilient_pipeline.py
"""

import json

from repro.runtime import FailureSchedule, FlakySink, Ingress
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import SeraphEngine
from repro.usecases.micromobility import (
    LISTING5_SERAPH,
    _t,
    figure1_stream,
)

UNTIL = _t("15:40")


def clean_baseline():
    engine = SeraphEngine()
    engine.register(LISTING5_SERAPH)
    return engine.run_stream(figure1_stream(), until=UNTIL)


def keys(emissions):
    return [(e.instant, sorted(map(repr, e.table))) for e in emissions]


def main():
    baseline = clean_baseline()
    stream = figure1_stream()

    # A degraded feed: two poison payloads, two displaced events.
    degraded = [
        stream[1],                 # 15:00 arrives first ...
        "{truncated json",         # ... alongside a corrupt line
        stream[0],                 # 14:45 shows up late
        stream[2],
        {"instant": "NaN"},        # and a half-formed record
        stream[4],                 # 15:40 overtakes 15:20
        stream[3],
    ]

    flaky = FlakySink(FailureSchedule.first(3))  # dies 3 times, recovers
    engine = SeraphEngine(ingress=Ingress(
        allowed_lateness=1200,                   # 20 minutes of tolerance
        retry=RetryPolicy(max_attempts=4, seed=7),
        sleep=lambda _: None,                    # no real waiting here
    ))
    engine.register(LISTING5_SERAPH, sink=flaky)
    emissions = engine.run_stream(degraded, until=UNTIL)

    print("== degraded feed, resilient run")
    print(f"   {engine.ingress.render()}")
    print(f"   quarantined payloads: {len(engine.dead_letters)}")
    for entry in engine.dead_letters:
        print(f"     - {entry.error}: {entry.reason}")
    assert keys(emissions) == keys(baseline)
    assert keys(flaky.delivered) == keys(baseline)
    print(f"   all {len(emissions)} emissions match the clean run, "
          f"none lost to the flaky sink")

    # Interrupt a second run mid-stream and resume from the checkpoint.
    first = SeraphEngine(ingress=Ingress(allowed_lateness=1200))
    first.register(LISTING5_SERAPH)
    resumed = []
    for item in degraded[:4]:
        resumed.extend(first.ingest_element(item))
    document = first.checkpoint_json()

    restored = SeraphEngine.from_checkpoint(json.loads(document))
    for item in degraded[4:]:
        resumed.extend(restored.ingest_element(item))
    resumed.extend(restored.flush(UNTIL))

    print("== checkpoint/restore")
    print(f"   checkpoint document: {len(document)} bytes")
    assert keys(resumed) == keys(baseline)
    print(f"   resumed run reproduces all {len(resumed)} emissions")

    print("== final emission (Table 6)")
    print(emissions[-1].render())


if __name__ == "__main__":
    main()
