"""Closed loop on an engine in this process: event in, emission out.

The system under test is this process (one workload per process, so
``peak_rss_mb`` is per workload).  Each event is ``ingest_element(e)``
then ``advance_to(e.instant)``; under the resilient wrapper the ingest
call alone, because the wrapper advances the core itself as the reorder
buffer releases elements.  The sink callback stamps the arrival of every
emission; an event's latency runs from just before its ingest to the
emission carrying the evaluation at that event's instant.

Untraced runs read the clock twice per event and nothing else.  Traced
runs put a driver-side span around every public call, build the engine
with the public ``observability=True`` and read the
``query.<name>.stage.<stage>`` histograms from ``unified_status()`` as
the children of the driver's advance span.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro import EngineConfig, build_engine
from repro.runtime.checkpoint import checkpoint_to_json
from repro.seraph.sinks import CallbackSink, Emission
from repro.service.sse import emission_json
from repro.stream.stream import StreamElement

from . import check, layers, manifest, measure, report
from .spans import SpanRecorder
from .workloads import Workload, displace, survivors


class Harness:
    """One engine with its registered query and the driver's sink."""

    def __init__(self, workload: Workload, overrides: Mapping[str, object],
                 traced: bool):
        self.recorder: Optional[SpanRecorder] = SpanRecorder() if traced else None
        self.arrivals: List[tuple] = []  # (perf_counter, Emission)
        self.event = -1  # index of the event being processed: the span id
        self.retained_max = 0
        self.buffered_max = 0
        config = EngineConfig(
            **{**workload.engine, **overrides, "observability": traced}
        )
        self.resilient = config.resilient
        self.engine = build_engine(config)
        sink = CallbackSink(
            self._receive_traced if traced else self._receive,
            skip_empty=False,
        )
        start = time.perf_counter()
        self.query = self.engine.register(workload.query(), sink=sink).name
        self.register_s = time.perf_counter() - start

    def _receive(self, emission: Emission) -> None:
        self.arrivals.append((time.perf_counter(), emission))

    def _receive_traced(self, emission: Emission) -> None:
        start = time.perf_counter()
        self.arrivals.append((start, emission))
        self.recorder.add("seraph.sink", start, time.perf_counter(), self.event)

    def step(self, element: StreamElement) -> None:
        self.event += 1
        engine = self.engine
        if self.recorder is None:
            engine.ingest_element(element)
            if not self.resilient:
                engine.advance_to(element.instant)
            return
        with self.recorder.span("seraph.ingest", self.event):
            engine.ingest_element(element)
        if self.resilient:
            status = engine.status()
            buffered = sum(status["resilience"]["buffered"].values())
            self.buffered_max = max(self.buffered_max, buffered)
            retained = sum(s["retained"] for s in status["streams"].values())
        else:
            with self.recorder.span("seraph.advance", self.event):
                engine.advance_to(element.instant)
            retained = engine.retained_elements
        self.retained_max = max(self.retained_max, retained)

    def counters(self) -> Dict[str, float]:
        return layers.engine_counters(self.engine.unified_status(), self.query)

    def checkpoint(self) -> str:
        if self.resilient:
            return self.engine.checkpoint_json()
        return checkpoint_to_json(self.engine)


def arrival_order(workload: Workload, seed: int,
                  elements: List[StreamElement]) -> List[StreamElement]:
    return displace(elements, seed) if workload.late else elements


def set_up(workload: Workload, seed: int, overrides) -> None:
    """Everything before the first timed event, at warm-up size: generate
    a window of events, build, register, and run the window through the
    engine (plan compilation, cache fill)."""
    warm = workload.generate(seed, workload.window_events)
    harness = Harness(workload, overrides, traced=False)
    for element in arrival_order(workload, seed, warm):
        harness.step(element)


def timed_setup(workload: Workload, seed: int, overrides) -> float:
    """Wall time of one complete set-up in a fresh process, as a user
    restarting the system pays it: interpreter start and ``import repro``
    included, so work moved to import time shows here too."""
    command = [sys.executable, manifest.RUN_PY, "--setup-only",
               "--workload", workload.name, "--seed", str(seed)]
    for key, value in overrides.items():
        command += ["--engine-config", f"{key}={json.dumps(value)}"]
    start = time.perf_counter()
    subprocess.run(command, check=True)
    return time.perf_counter() - start


def closed_loop(harness: Harness, events: Sequence[StreamElement],
                seconds: float):
    """Run ``events`` until done or ``seconds`` have passed; returns
    (send time per event, block marks)."""
    sent: List[float] = []
    clock = time.perf_counter
    step = harness.step
    marks = measure.Marks(len(events), time.process_time)
    deadline = marks.start + seconds
    for element in events:
        now = clock()
        if now >= deadline:
            break
        sent.append(now)
        step(element)
        marks.done(len(sent))
    return sent, marks.close(len(sent))


class Pass:
    """Build, warm up, time: one engine's life."""

    def __init__(self, workload: Workload, arrivals: Sequence[StreamElement],
                 seconds: float, overrides, traced: bool):
        warm = workload.window_events
        self.harness = harness = Harness(workload, overrides, traced)
        for element in arrivals[:warm]:
            harness.step(element)
        gc.collect()
        self.rss_after_setup = measure.rss_mb()
        before = harness.counters()
        self.sent, self.marks = closed_loop(harness, arrivals[warm:], seconds)
        self.peak_rss = measure.peak_rss_mb()
        self.seen = arrivals[:warm + len(self.sent)]
        self.cut = len(self.seen) < len(arrivals)
        if harness.resilient:
            harness.engine.flush()  # untimed: drains the reorder buffer
        self.delta = layers.difference(harness.counters(), before)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        scale: float, overrides: Mapping[str, object],
        spans_out: Optional[str] = None) -> Dict[str, object]:
    count = workload.sized(scale)
    warm = workload.window_events
    start = time.perf_counter()
    elements = workload.generate(seed, count)
    generate_s = time.perf_counter() - start
    arrivals = arrival_order(workload, seed, elements)

    if trace:
        # Half the budget untraced, half traced, over the same events:
        # their difference is the tracing overhead.
        arrivals = arrivals[:warm + (count - warm) // 2]
        seconds = seconds / 2
        plain = Pass(workload, arrivals, seconds, overrides, traced=False)
    else:
        setups = [timed_setup(workload, seed, overrides)
                  for _ in range(report.SETUP_REPEATS)]
    timed = Pass(workload, arrivals, seconds, overrides, traced=trace)
    harness, sent = timed.harness, timed.sent

    # -- latency: the emission at the event's own instant ------------------
    got = {emission.instant: at for at, emission in harness.arrivals}
    events = timed.seen[warm:]
    summary = measure.summarise(
        sent, [got.get(element.instant) for element in events], timed.marks)

    emitted = {emission.instant: emission_json(emission)
               for _at, emission in harness.arrivals}
    reference = check.Reference(workload.query(), survivors(
        timed.seen, workload.engine.get("allowed_lateness", 0)))
    result = report.outcome(
        workload.name, seed, summary, reference, emitted,
        in_order=[emitted[instant] for instant in sorted(emitted)],
        complete=not timed.cut,
        missing=sum(1 for element in events if element.instant not in got),
        events=count, generate_s=generate_s)

    if not trace:
        result["detail"]["setup_samples_s"] = setups
        result["values"] = report.end_to_end(setups, summary, timed.peak_rss)
        return result

    # -- per-layer table -----------------------------------------------------
    recorder = harness.recorder
    since = sent[0]
    spans = recorder.totals(since)
    ingest_s = spans.get("seraph.ingest", 0.0)
    advance_s = spans.get("seraph.advance", 0.0)
    start = time.perf_counter()
    document = harness.checkpoint()
    checkpoint_s = time.perf_counter() - start
    result["values"] = {
        **report.shared_layers(
            summary, plain.marks, timed.marks, timed.delta,
            # under the resilient wrapper evaluations run inside ingest
            ingest_s if harness.resilient else advance_s,
            reference, timed.rss_after_setup, generate_s),
        "seraph.ingest_s": ingest_s,
        "seraph.advance_s": advance_s,
        "seraph.sink_s": spans.get("seraph.sink", 0.0),
        "seraph.register_s": harness.register_s,
        "seraph.emission_rows": sum(
            len(emission.table) for at, emission in harness.arrivals
            if at >= since),
        "seraph.retained_elements_max": harness.retained_max,
        "runtime.reorder_depth_max": harness.buffered_max,
        "runtime.checkpoint_s": checkpoint_s,
        "runtime.checkpoint_bytes": len(document),
    }
    result["detail"]["self_time_s"] = recorder.self_totals(since)
    if spans_out:
        recorder.write(spans_out)
    return result
