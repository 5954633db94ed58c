"""The engine's ingress: guard, re-sequencing, quarantine, sink isolation.

Snapshot reducibility makes the engine's contract a property of the
pipeline on whatever input survives, so absorbing poison and disorder is
a *stage* in front of the stream log, not another engine.  An
:class:`Ingress` is that stage, owned by a
:class:`~repro.seraph.engine.SeraphEngine` built with
``EngineConfig(resilient=True)``:

* **guard** — raw payloads (JSON strings, ``{"instant", "graph"}``
  dicts, or :class:`StreamElement` objects) are validated by
  :func:`decode_item` before they touch the engine; malformed ones are
  handled per the poison policy (fail fast / skip / dead-letter);
* **reorder buffers** — one per input stream, re-sequencing bounded
  out-of-order arrivals and quarantining events beyond the allowed
  lateness;
* **sink isolation** — every registered sink is wrapped in a
  :class:`ResilientSink` (retries + circuit breaker + fallback), so user
  sink bugs cannot abort the evaluation loop;
* **checkpoint state** — policies, buffered elements and dead letters
  are the ``"runtime"`` section of the engine's checkpoint document.

Every counter lands under ``resilience.*`` in the owning engine's
metrics registry; ``status()["resilience"]`` is a read of it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PoisonMessageError, ReproError
from repro.graph.io import element_from_dict, element_to_dict, graph_from_dict
from repro.graph.model import PropertyGraph
from repro.obs import Observability
from repro.runtime.deadletter import DeadLetterEntry, DeadLetterQueue
from repro.runtime.faults import FlakySink
from repro.runtime.policies import FaultPolicy
from repro.runtime.reorder import ReorderBuffer
from repro.runtime.resilient_sink import (
    CircuitBreaker,
    ResilientSink,
    RetryPolicy,
)
from repro.seraph.sinks import Sink
from repro.stream.stream import StreamElement

#: ``resilience.*`` counters, in ``status()["resilience"]["metrics"]`` order.
RESILIENCE_COUNTERS = (
    "ingested",             # elements admitted into the engine
    "dead_lettered",        # entries appended to the dead-letter queue
    "poison_rejected",      # malformed payloads caught by the guard
    "poison_skipped",       # poison dropped silently (SKIP policy)
    "reordered",            # out-of-order arrivals re-sequenced in bound
    "late_events",          # elements beyond the allowed lateness
    "late_dropped",         # late elements dropped (SKIP/DEAD_LETTER)
    "sink_deliveries",      # emissions successfully delivered
    "sink_failures",        # individual failed delivery attempts
    "retried",              # delivery retries performed
    "short_circuited",      # deliveries refused by an open breaker
    "breaker_opens",        # closed/half-open -> open transitions
    "fallback_deliveries",  # emissions routed to the fallback sink
    "checkpoints",          # checkpoints taken
    "restores",             # engines restored from a checkpoint
)


def decode_item(item: Any) -> StreamElement:
    """Decode/validate one raw input into a :class:`StreamElement`.

    Accepts a StreamElement (validated), an ``{"instant", "graph"}``
    payload dict, or its JSON string form.  Anything else — or any
    decoding failure — raises :class:`PoisonMessageError`.
    """
    if isinstance(item, StreamElement):
        if not isinstance(item.graph, PropertyGraph):
            raise PoisonMessageError(
                f"stream element graph is {type(item.graph).__name__}, "
                "not a PropertyGraph"
            )
        if isinstance(item.instant, bool) or not isinstance(item.instant, int):
            raise PoisonMessageError(
                f"stream element instant {item.instant!r} is not an integer"
            )
        return item
    if isinstance(item, (str, bytes)):
        try:
            item = json.loads(item)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PoisonMessageError(
                f"payload is not valid JSON: {exc}"
            ) from exc
    if not isinstance(item, dict):
        raise PoisonMessageError(
            f"payload of type {type(item).__name__} is not a stream element"
        )
    try:
        instant = item["instant"]
        graph_data = item["graph"]
    except KeyError as exc:
        raise PoisonMessageError(f"payload misses key {exc}") from exc
    if isinstance(instant, bool) or not isinstance(instant, int):
        raise PoisonMessageError(f"instant {instant!r} is not an integer")
    if not isinstance(graph_data, dict):
        raise PoisonMessageError("graph payload is not an object")
    try:
        graph = graph_from_dict(graph_data)
    except ReproError as exc:
        raise PoisonMessageError(f"malformed graph payload: {exc}") from exc
    return StreamElement(graph=graph, instant=instant)


class Ingress:
    """What stands between raw arrivals and the engine's stream log.

    Parameters
    ----------
    allowed_lateness:
        Out-of-order tolerance in stream time units: an element may
        arrive up to this much after a newer element and still be
        re-sequenced.  0 (default) admits only non-decreasing arrivals.
    poison_policy / late_policy / sink_policy:
        What to do with malformed payloads, events beyond the lateness
        bound, and emissions no delivery attempt could place.
    retry / breaker_factory:
        Sink-delivery tuning; each registered query gets its own breaker.
    sleep / clock:
        Injectable time for deterministic tests (backoff sleeping and
        breaker recovery timing).
    chaos:
        A :class:`~repro.runtime.faults.ChaosConfig`.  Its source axis
        wraps every ``run_stream`` input in a seeded
        :class:`~repro.runtime.faults.FlakySource` (poison payloads,
        displaced arrivals); its sink axis slips a seeded
        :class:`~repro.runtime.faults.FlakySink` between the resilient
        delivery layer and each user sink, so retries/breakers get
        exercised deterministically.

    The owning engine calls :meth:`attach` with its observability
    bundle: counters land in the engine's registry, and sink retries show
    up as ``sink_attempt`` child spans under the engine's ``sink`` span.
    """

    def __init__(
        self,
        *,
        allowed_lateness: int = 0,
        poison_policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        late_policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        sink_policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        dead_letter_capacity: Optional[int] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        chaos=None,
    ):
        self.allowed_lateness = allowed_lateness
        self.poison_policy = poison_policy
        self.late_policy = late_policy
        self.sink_policy = sink_policy
        self.retry = retry if retry is not None else RetryPolicy()
        self.dead_letters = dead_letters if dead_letters is not None \
            else DeadLetterQueue(capacity=dead_letter_capacity)
        self.sleep = sleep
        self.clock = clock
        self.chaos = chaos
        self._breaker_factory = breaker_factory
        self._buffers: Dict[str, ReorderBuffer] = {}
        self.attach(Observability.disabled())

    def attach(self, obs: Observability) -> None:
        """Count into (and trace through) the owning engine's bundle."""
        self.obs = obs
        self.registry = self.dead_letters.registry = obs.registry
        self.registry.declare("resilience", RESILIENCE_COUNTERS)
        self._released = obs.registry.counter("resilience.ingested")

    # -- arrivals ----------------------------------------------------------

    def source(self, items: Iterable[Any]) -> Iterable[Any]:
        """``items``, behind the seeded source chaos when configured —
        poison payloads and displaced arrivals land on exactly the
        machinery (poison policy, reorder buffer) built to absorb them."""
        if self.chaos is not None and self.chaos.wants_source_chaos:
            return self.chaos.source(items)
        return items

    def _buffer(self, stream: str) -> ReorderBuffer:
        buffer = self._buffers.get(stream)
        if buffer is None:
            buffer = self._buffers[stream] = ReorderBuffer(
                allowed_lateness=self.allowed_lateness,
                late_policy=self.late_policy,
                dead_letters=self.dead_letters,
                stream=stream,
                registry=self.registry,
            )
        return buffer

    def offer(self, item: Any, stream: str) -> List[StreamElement]:
        """Validate and re-sequence one raw input; returns the elements
        that became ripe, in the order the engine must admit them."""
        try:
            element = decode_item(item)
        except PoisonMessageError as exc:
            self.registry.inc("resilience.poison_rejected")
            if self.poison_policy is FaultPolicy.FAIL_FAST:
                raise
            if self.poison_policy is FaultPolicy.SKIP:
                self.registry.inc("resilience.poison_skipped")
            else:
                self.dead_letters.append(
                    item, reason=str(exc), error=exc, stream=stream
                )
            return []
        ripe = self._buffer(stream).offer(element)
        self._released.inc(len(ripe))
        return ripe

    def drain(self) -> Iterator[Tuple[str, StreamElement]]:
        """End-of-stream: everything still buffered, stream by stream."""
        for stream, buffer in self._buffers.items():
            for element in buffer.flush():
                self._released.inc()
                yield stream, element

    # -- sinks -------------------------------------------------------------

    def wrap_sink(
        self, inner: Sink, fallback: Optional[Sink] = None
    ) -> ResilientSink:
        breaker = (
            self._breaker_factory()
            if self._breaker_factory is not None
            else CircuitBreaker(clock=self.clock)
        )
        if self.chaos is not None and self.chaos.wants_sink_chaos:
            # The flaky layer sits *under* the resilient one, so its
            # injected failures exercise retries/breakers while the user
            # sink still receives every delivered emission.
            inner = self.chaos.sink(inner)
        return ResilientSink(
            inner,
            retry=self.retry,
            breaker=breaker,
            fallback=fallback,
            failure_policy=self.sink_policy,
            dead_letters=self.dead_letters,
            registry=self.registry,
            sleep=self.sleep,
            tracer=self.obs.tracer if self.obs.enabled else None,
        )

    @staticmethod
    def unwrap(sink: Sink) -> Sink:
        """The user's sink under the isolation (and chaos) layers."""
        if isinstance(sink, ResilientSink):
            sink = sink.inner
        if isinstance(sink, FlakySink):
            sink = sink.inner
        return sink

    # -- introspection / checkpoint ----------------------------------------

    def _policies(self) -> Dict[str, Any]:
        return {
            "allowed_lateness": self.allowed_lateness,
            "poison_policy": self.poison_policy.value,
            "late_policy": self.late_policy.value,
            "sink_policy": self.sink_policy.value,
        }

    def status(self) -> Dict[str, Any]:
        """The ``status()["resilience"]`` section."""
        return {
            **self._policies(),
            "buffered": {name: len(buffer)
                         for name, buffer in self._buffers.items()},
            "dead_letters": len(self.dead_letters),
            "metrics": self.registry.values(
                "resilience", RESILIENCE_COUNTERS),
        }

    def render(self) -> str:
        """One-line summary of the non-zero ``resilience.*`` counters."""
        from repro.obs.format import render_counters

        return render_counters(
            "resilience",
            {name: count for name, count in
             self.status()["metrics"].items() if count},
            empty="all counters zero",
        )

    def to_dict(self) -> Dict[str, Any]:
        """The checkpoint document's ``"runtime"`` section."""
        self.registry.inc("resilience.checkpoints")
        return {
            **self._policies(),
            "buffers": {
                name: {
                    "watermark": buffer.watermark,
                    "frontier": buffer.frontier,
                    "pending": [element_to_dict(element)
                                for element in buffer.pending],
                }
                for name, buffer in self._buffers.items()
            },
            "metrics": self.registry.values(
                "resilience", RESILIENCE_COUNTERS),
            "dead_letters": {
                "total": self.dead_letters.total_appended,
                "entries": [entry.to_dict() for entry in self.dead_letters],
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], **tuning) -> "Ingress":
        """An ingress with a :meth:`to_dict` document's policies;
        ``tuning`` supplies what a document cannot carry (retry, clock,
        sleep, factories).  :meth:`restore_state` reloads the rest."""
        policies = dict(
            allowed_lateness=data["allowed_lateness"],
            poison_policy=FaultPolicy.parse(data["poison_policy"]),
            late_policy=FaultPolicy.parse(data["late_policy"]),
            sink_policy=FaultPolicy.parse(data["sink_policy"]),
        )
        return cls(**{**policies, **tuning})

    def restore_state(self, data: Dict[str, Any]) -> None:
        """Reload buffers, quarantine and counters from a :meth:`to_dict`
        document — once the owning engine has attached, so the counters
        land in its registry."""
        for name, count in data["metrics"].items():
            self.registry.counter(f"resilience.{name}").inc(count)
        self.registry.inc("resilience.restores")
        for name, buffer_data in data["buffers"].items():
            self._buffer(name).restore_state(
                watermark=buffer_data["watermark"],
                frontier=buffer_data["frontier"],
                pending=[element_from_dict(element)
                         for element in buffer_data["pending"]],
            )
        letters = data["dead_letters"]
        self.dead_letters.restore(
            entries=[
                DeadLetterEntry(
                    payload=entry["payload"],
                    reason=entry["reason"],
                    error=entry["error"],
                    stream=entry["stream"],
                    instant=entry["instant"],
                    sequence=entry["sequence"],
                )
                for entry in letters["entries"]
            ],
            total=letters["total"],
        )

    def __repr__(self) -> str:
        return (f"Ingress(lateness={self.allowed_lateness}, "
                f"dead_letters={len(self.dead_letters)})")
