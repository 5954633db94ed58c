"""Load generator for the served engine: HTTP push in, SSE frame out.

The system under test is ``python -m repro serve`` in a **separate child
process** on loopback; this process is the load generator: one request
in flight at a time plus one SSE connection (the machine has two cores:
one for each side).  Per event it sends ``POST .../events`` and then
``POST .../advance {until: instant}`` — the server closes every
connection after its response, so each request opens its own — and reads
the emission frame off the SSE stream.

* Phase A, closed loop: the next event is sent once the previous
  event's frame has arrived; latency runs from just before the push is
  written to the frame read.  The end-to-end metrics are phase A's.
* Phase B, open loop (traced runs only, on the untraced server, after
  its phase A): events are sent on a fixed schedule of ``open_rate``
  events/s regardless of how the server keeps up; latency runs from the
  moment each event was **due**, so a stall charges every event queued
  behind it, and how late the generator itself ran is reported.  Its
  numbers are ``service.open_*`` layer rows (README: why not end to end).

CPU and peak memory are read for the server process only.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro import EngineConfig, build_engine
from repro.graph.io import graph_to_dict
from repro.runtime.engine import decode_item
from repro.seraph.sinks import CollectingSink
from repro.service.client import ServiceClient
from repro.service.sse import emission_json
from repro.stream.stream import StreamElement

from . import check, layers, measure, report
from .spans import SpanRecorder
from .workloads import Workload

TENANT = "bench"
TOKEN = "bench-token"
JSON_BODY = {"Content-Type": "application/json"}
FRAME_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 5.0


class ServedEngine:
    """``python -m repro serve`` as a child process, one tenant."""

    def __init__(self, overrides: Mapping[str, object], traced: bool):
        engine = {**overrides, "observability": True} if traced else dict(overrides)
        self._config = {
            "host": "127.0.0.1", "port": 0,
            "tenants": {TENANT: {
                "token": TOKEN,
                # the SSE consumer keeps up; the log only has to hold a burst
                "quotas": {"max_buffered_emissions": 4096},
                **({"engine": engine} if engine else {}),
            }},
        }
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def __enter__(self) -> "ServedEngine":
        # The configuration travels over stdin: nothing is written to
        # disk and nothing is left behind if the run is killed.
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tenants-config", "/dev/stdin"],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.process.stdin.write(json.dumps(self._config))
        self.process.stdin.close()
        line = self.process.stderr.readline()
        if "listening on" not in line:
            self.__exit__(None, None, None)
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        return self

    def __exit__(self, *exc_info) -> None:
        # SIGTERM, not the CLI's graceful SIGINT path: a server whose SSE
        # consumer has just disconnected often never finishes that
        # shutdown (README, oddities), and there is no state to save.
        process = self.process
        process.terminate()
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stderr.close()

    @property
    def pid(self) -> int:
        return self.process.pid


class Session:
    """Registered query + attached SSE stream on one served engine."""

    def __init__(self, server: ServedEngine):
        self.client = ServiceClient("127.0.0.1", server.port, token=TOKEN)
        self.events_path = f"/tenants/{TENANT}/streams/default/events"
        self.advance_path = f"/tenants/{TENANT}/advance"
        self.rejected = 0
        self.shed = 0
        self.frames: List[tuple] = []  # (perf_counter, data)

    async def attach(self, query_text: str) -> None:
        start = time.perf_counter()
        reply = await self.client.request(
            "POST", f"/tenants/{TENANT}/queries", payload={"query": query_text})
        if reply.status != 201:
            raise RuntimeError(f"register failed: {reply.status} {reply.body!r}")
        self.register_s = time.perf_counter() - start
        self.query = reply.json()["query"]
        self.reader, self.writer = await self.client.open_sse(
            f"/tenants/{TENANT}/queries/{self.query}/emissions")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def post(self, path: str, body: bytes, accept: int) -> None:
        reply = await self.client.request("POST", path, body=body,
                                          headers=JSON_BODY)
        if reply.status != accept:
            self.rejected += 1

    async def read_frame(self) -> bool:
        """Read one emission frame; False once the stream is over (shed,
        closed, or silent for FRAME_TIMEOUT_S)."""
        try:
            frame = await asyncio.wait_for(
                self.client.read_event(self.reader), FRAME_TIMEOUT_S)
        except asyncio.TimeoutError:
            return False
        if frame is None:
            return False
        if frame.event == "shed":
            self.shed += 1
            return False
        self.frames.append((time.perf_counter(), frame.data))
        return True

    async def send(self, payload: "Payloads", index: int,
                   recorder: Optional[SpanRecorder]) -> None:
        """Push event ``index`` and ask for its evaluation."""
        t0 = time.perf_counter()
        await self.post(self.events_path, payload.events[index], 202)
        t1 = time.perf_counter()
        await self.post(self.advance_path, payload.advances[index], 200)
        if recorder is not None:
            recorder.add("service.push", t0, t1, index)
            recorder.add("service.advance", t1, time.perf_counter(), index)

    async def status(self) -> Mapping:
        reply = await self.client.request("GET", f"/tenants/{TENANT}/status")
        return reply.json()


class Payloads:
    """Request bodies, encoded before timing (generator cost, not the
    system's: reported as ``service.encode_s``)."""

    def __init__(self, elements: Sequence[StreamElement]):
        start = time.perf_counter()
        self.events = [
            json.dumps({"instant": element.instant,
                        "graph": graph_to_dict(element.graph)}).encode("utf-8")
            for element in elements
        ]
        self.encode_s = time.perf_counter() - start
        self.advances = [
            json.dumps({"until": element.instant}).encode("utf-8")
            for element in elements
        ]


async def warm_up(session: Session, payloads: Payloads, count: int) -> None:
    for index in range(count):
        await session.send(payloads, index, None)
        await session.read_frame()


async def closed_loop(session: Session, payloads: Payloads, first: int,
                      last: int, seconds: float, pid: int,
                      recorder: Optional[SpanRecorder]):
    """Events ``first..last-1``, or fewer if ``seconds`` run out."""
    clock = time.perf_counter
    sent: List[float] = []
    marks = measure.Marks(last - first, lambda: measure.child_cpu_s(pid))
    deadline = marks.start + seconds
    for index in range(first, last):
        now = clock()
        if now >= deadline:
            break
        sent.append(now)
        await session.send(payloads, index, recorder)
        replied = clock()
        if not await session.read_frame():
            break
        if recorder is not None:
            recorder.add("service.sse_lag", replied, clock(), index)
        marks.done(len(sent))
    return sent, marks.close(len(sent))


@dataclass
class OpenPhase:
    """Phase B: when each event was due, and what the schedule cost."""

    first_frame: int  # index into ``Session.frames`` of the first event's frame
    due: List[float]
    marks: List[measure.Mark]
    late_ms: List[float]
    backlog_max: int

    def summary(self, frames: Sequence[tuple]) -> Dict[str, float]:
        arrived = [frames[self.first_frame + k][0]
                   if self.first_frame + k < len(frames) else None
                   for k in range(len(self.due))]
        return measure.summarise(self.due, arrived, self.marks)


async def open_loop(session: Session, payloads: Payloads, first: int,
                    last: int, seconds: float, pid: int,
                    rate: float) -> OpenPhase:
    clock = time.perf_counter
    base = len(session.frames)

    async def read_frames() -> None:
        while await session.read_frame():
            pass

    due: List[float] = []
    late: List[float] = []
    backlog = 0
    reader = asyncio.ensure_future(read_frames())
    marks = measure.Marks(last - first, lambda: measure.child_cpu_s(pid))
    start = marks.start
    try:
        for index in range(first, last):
            at = start + len(due) / rate
            if at - start >= seconds or reader.done():
                break
            wait = at - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            due.append(at)
            late.append((clock() - at) * 1000.0)
            await session.send(payloads, index, None)
            backlog = max(backlog, len(due) - (len(session.frames) - base))
            marks.done(len(due))
        marks.close(len(due))
        # Frames still in flight get FRAME_TIMEOUT_S; ones that never
        # come are counted missing (and as limit misses) by the caller.
        give_up = clock() + FRAME_TIMEOUT_S
        while (len(session.frames) - base < len(due)
               and not reader.done() and clock() < give_up):
            await asyncio.sleep(0.002)
    finally:
        reader.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await reader
    return OpenPhase(base, due, marks.marks, late, backlog)


async def timed_setup(workload: Workload, seed: int, overrides) -> float:
    """Boot the server, register, attach, run the warm-up window."""
    start = time.perf_counter()
    warm = workload.generate(seed, workload.window_events)
    payloads = Payloads(warm)
    with ServedEngine(overrides, traced=False) as server:
        session = Session(server)
        await session.attach(workload.query())
        await warm_up(session, payloads, len(warm))
        elapsed = time.perf_counter() - start
        await session.close()
    return elapsed


@dataclass
class Pass:
    """What one served engine's life leaves behind."""

    session: Session
    recorder: Optional[SpanRecorder]
    sent: List[float]
    marks: List[measure.Mark]
    phase_b: Optional[OpenPhase]
    delta: Dict[str, float]
    rss_after_setup: float
    peak_rss: float

    @property
    def events(self) -> int:
        """Events this server took after the warm-up, both phases."""
        return len(self.sent) + (len(self.phase_b.due) if self.phase_b else 0)

    def summary(self, warm: int) -> Dict[str, float]:
        # Frame k answers event k: one evaluation per event, in order.
        frames = self.session.frames
        arrived = [frames[warm + k][0] if warm + k < len(frames) else None
                   for k in range(len(self.sent))]
        return measure.summarise(self.sent, arrived, self.marks)


async def one_pass(workload: Workload, payloads: Payloads, closed: int,
                   open_events: int, seconds: float, overrides,
                   traced: bool) -> Pass:
    """Boot, warm up, time ``closed`` events in a closed loop and then
    ``open_events`` on the open-loop schedule, read the server's books,
    shut down."""
    warm = workload.window_events
    recorder = SpanRecorder() if traced else None
    with ServedEngine(overrides, traced) as server:
        session = Session(server)
        await session.attach(workload.query())
        await warm_up(session, payloads, warm)
        gc.collect()
        rss_after_setup = measure.rss_mb(server.pid)
        before = layers.engine_counters(await session.status(), session.query)
        sent, marks = await closed_loop(
            session, payloads, warm, warm + closed, seconds, server.pid, recorder)
        peak_rss = measure.child_peak_rss_mb(server.pid)
        after = layers.engine_counters(await session.status(), session.query)
        phase_b = None
        if open_events:
            first = warm + len(sent)  # the stream goes on where phase A stopped
            phase_b = await open_loop(
                session, payloads, first, first + open_events, seconds,
                server.pid, workload.open_rate)
        await session.close()
    return Pass(session, recorder, sent, marks, phase_b,
                layers.difference(after, before), rss_after_setup, peak_rss)


def offline_emissions(workload: Workload, elements: Sequence[StreamElement]):
    """The same events through an engine in this process, under the
    service's discipline (evaluations strictly before an arrival do not
    see it): what every frame must equal byte for byte."""
    engine = build_engine(EngineConfig())
    sink = CollectingSink()
    engine.register(workload.query(), sink=sink)
    for element in elements:
        engine.advance_to(element.instant - 1)
        engine.ingest_element(element)
        engine.advance_to(element.instant)
    return sink.emissions


async def _run(workload: Workload, seed: int, seconds: float, trace: bool,
               scale: float, overrides: Mapping[str, object],
               spans_out: Optional[str]) -> Dict[str, object]:
    count = workload.sized(scale)
    warm = workload.window_events
    closed, open_events = count - warm, 0
    if trace:
        # A third of the budget each: phase A untraced, phase B on that
        # same server, phase A again on a traced server.  The two phase
        # A passes see the same events; their difference is the tracing
        # overhead.
        closed //= 3
        open_events = workload.open_sized(scale)
        seconds = seconds / 3
    start = time.perf_counter()
    elements = workload.generate(seed, warm + closed + open_events)
    generate_s = time.perf_counter() - start
    payloads = Payloads(elements)

    if trace:
        plain = await one_pass(workload, payloads, closed, open_events,
                               seconds, overrides, traced=False)
    else:
        setups = [await timed_setup(workload, seed, overrides)
                  for _ in range(report.SETUP_REPEATS)]
    timed = await one_pass(workload, payloads, closed, 0, seconds, overrides,
                           traced=trace)
    session, sent = timed.session, timed.sent
    # The pass that saw the most of the stream is the one checked against
    # the reference; the other must equal the offline run too.
    longest = plain if trace else timed
    seen = elements[:warm + longest.events]
    frames = [data for _at, data in longest.session.frames]
    offline = offline_emissions(workload, seen)
    texts = [emission_json(emission) for emission in offline]
    identical = frames == texts[:len(frames)]
    if trace:
        traced_frames = [data for _at, data in session.frames]
        identical = identical and traced_frames == texts[:len(traced_frames)]

    summary = timed.summary(warm)
    emitted = {json.loads(data)["instant"]: data for data in frames}
    sessions = (plain.session, session) if trace else (session,)
    reference = check.Reference(workload.query(), seen)
    result = report.outcome(
        workload.name, seed, summary, reference, emitted, frames,
        attempted=longest.events,
        complete=len(seen) == len(elements),
        missing=sum(1 for e in seen[warm:] if e.instant not in emitted),
        refused=sum(s.rejected + s.shed for s in sessions),
        frames_equal_offline=identical,
        events=count, generate_s=generate_s)

    if not trace:
        result["detail"]["setup_samples_s"] = setups
        result["values"] = report.end_to_end(setups, summary, timed.peak_rss)
        return result

    # -- per-layer table -----------------------------------------------------
    recorder = timed.recorder
    since = timed.marks[0][1]
    bodies = payloads.events[warm:warm + len(sent)]
    start = time.perf_counter()
    for body in bodies:
        decode_item(body)
    decode_s = time.perf_counter() - start
    start = time.perf_counter()
    for emission in offline[warm:warm + len(sent)]:
        emission_json(emission)
    frame_encode_s = time.perf_counter() - start
    phase_b = plain.phase_b
    opened = phase_b.summary(plain.session.frames)
    result["values"] = {
        # the engine's evaluations are not visible as a span over the wire
        **report.shared_layers(
            summary, plain.marks, timed.marks, timed.delta, 0.0,
            reference, timed.rss_after_setup, generate_s),
        "seraph.register_s": session.register_s,
        "seraph.emission_rows": sum(
            len(json.loads(data)["rows"])
            for _at, data in session.frames[warm:]),
        "service.push_rtt_p50_ms": _p50_ms(recorder, "service.push", since),
        "service.advance_rtt_p50_ms": _p50_ms(recorder, "service.advance", since),
        "service.sse_lag_p50_ms": _p50_ms(recorder, "service.sse_lag", since),
        "service.encode_s": payloads.encode_s,
        "service.decode_replay_s": decode_s,
        "service.frame_encode_replay_s": frame_encode_s,
        "service.bytes_in": sum(len(body) for body in bodies),
        "service.bytes_out": sum(
            len(data) for _at, data in session.frames[warm:]),
        "service.rejected": sum(s.rejected for s in sessions),
        "service.shed": sum(s.shed for s in sessions),
        "service.open_events_per_s": opened["events_per_s"],
        "service.open_latency_p50_ms": opened["latency_p50_ms"],
        "service.open_latency_p90_ms": opened["latency_p90_ms"],
        "service.open_limit_miss_share": opened["limit_miss_share"],
        "service.open_backlog_max": phase_b.backlog_max,
        "service.generator_late_p90_ms": measure.percentile(phase_b.late_ms, 9),
    }
    result["detail"]["open_events"] = len(phase_b.due)
    if spans_out:
        recorder.write(spans_out)
    return result


def _p50_ms(recorder: SpanRecorder, name: str, since: float) -> float:
    durations = recorder.durations(name, since)
    return statistics.median(durations) * 1000.0 if durations else 0.0


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        scale: float, overrides: Mapping[str, object],
        spans_out: Optional[str] = None) -> Dict[str, object]:
    return asyncio.run(
        _run(workload, seed, seconds, trace, scale, overrides, spans_out))
