"""Deterministic fault injection: the chaos harness for the runtime.

Every component here is seeded or schedule-driven, never wall-clock or
global-random dependent, so a failing test reproduces exactly:

* :class:`FailureSchedule` — decides, per call index, whether to fail
  (explicit indices, "first N", "every Kth", or a seeded random rate);
* :class:`FlakySink` — a sink that raises per schedule, recording every
  attempt and every successful delivery;
* :class:`FlakySource` — wraps a clean element sequence and injects
  poison payloads and displaced (late) events per seed;
* :class:`ChaosConfig` — one seeded knob (``EngineConfig(resilient=True,
  chaos=...)``, ``--chaos-seed`` on the CLI) driving both fault axes at
  once: poison payloads / displaced events at the source and scheduled
  sink failures — so tests and the CLI share a single deterministic
  fault path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.errors import EngineError
from repro.seraph.sinks import CollectingSink, Emission, Sink
from repro.stream.stream import StreamElement


class InjectedSinkFailure(RuntimeError):
    """The error a :class:`FlakySink` raises on a scheduled failure."""


class FailureSchedule:
    """Deterministic per-call failure decisions."""

    def __init__(self, fail_indices: Iterable[int] = ()):
        self._fail_indices = frozenset(fail_indices)

    @classmethod
    def never(cls) -> "FailureSchedule":
        return cls()

    @classmethod
    def first(cls, count: int) -> "FailureSchedule":
        """Fail the first ``count`` calls, then recover for good."""
        return cls(range(count))

    @classmethod
    def at(cls, *indices: int) -> "FailureSchedule":
        return cls(indices)

    @classmethod
    def every(cls, period: int, limit: int = 1000) -> "FailureSchedule":
        """Fail every ``period``-th call (0-based), up to ``limit`` calls."""
        return cls(range(0, limit, period))

    @classmethod
    def random(cls, rate: float, seed: int, limit: int = 1000
               ) -> "FailureSchedule":
        """Seeded Bernoulli failures over the first ``limit`` calls."""
        rng = random.Random(seed)
        return cls(i for i in range(limit) if rng.random() < rate)

    def should_fail(self, call_index: int) -> bool:
        return call_index in self._fail_indices

    def __repr__(self) -> str:
        shown = sorted(self._fail_indices)[:8]
        return f"FailureSchedule(fail at {shown}...)"


class FlakySink(Sink):
    """A sink that fails per schedule, then behaves.

    ``calls`` counts every ``receive`` invocation (delivery attempts);
    ``delivered`` holds the emissions that got through.  With
    ``FailureSchedule.first(n)`` this is exactly the acceptance
    scenario "fails deterministically N times then recovers".
    """

    def __init__(
        self,
        schedule: FailureSchedule,
        inner: Optional[Sink] = None,
    ):
        self.schedule = schedule
        self.inner = inner if inner is not None else CollectingSink()
        self.calls = 0
        self.failures = 0

    @property
    def delivered(self) -> List[Emission]:
        if isinstance(self.inner, CollectingSink):
            return list(self.inner.emissions)
        raise AttributeError("inner sink does not collect emissions")

    def receive(self, emission: Emission) -> None:
        index = self.calls
        self.calls += 1
        if self.schedule.should_fail(index):
            self.failures += 1
            raise InjectedSinkFailure(
                f"injected sink failure on call {index}"
            )
        self.inner.receive(emission)


class FlakySource:
    """Injects poison payloads and displaced events into a clean stream.

    Yields a mix of valid :class:`StreamElement` objects and raw payloads
    (to be fed to an engine that owns an ingress):

    * with probability ``poison_rate`` a poison payload from
      ``POISON_PAYLOADS`` is inserted *before* the next clean element;
    * with probability ``displace_rate`` a clean element is held back and
      re-emitted ``displace_by`` positions later — an out-of-order
      arrival the reorder buffer must re-sequence (or quarantine, when
      beyond the allowed lateness).

    The same ``seed`` always produces the same faulty sequence.
    """

    #: Representative malformed queue payloads (bad instant, missing
    #: graph, malformed graph document, wrong type entirely).
    POISON_PAYLOADS: Sequence[Any] = (
        {"instant": "not-a-number", "graph": {"nodes": [], "relationships": []}},
        {"graph": {"nodes": [], "relationships": []}},
        {"instant": 0, "graph": {"nodes": [{"labels": []}], "relationships": []}},
        "this is not json",
        {"instant": 1, "graph": "nope"},
        42,
    )

    def __init__(
        self,
        elements: Iterable[StreamElement],
        seed: int = 0,
        poison_rate: float = 0.0,
        displace_rate: float = 0.0,
        displace_by: int = 2,
    ):
        self._elements = list(elements)
        self.seed = seed
        self.poison_rate = poison_rate
        self.displace_rate = displace_rate
        self.displace_by = max(1, displace_by)

    def __iter__(self) -> Iterator[Any]:
        rng = random.Random(self.seed)
        held: List[tuple] = []  # (release_position, element)
        position = 0
        for element in self._elements:
            for release_at, late in [h for h in held]:
                if release_at <= position:
                    held.remove((release_at, late))
                    yield late
            if self.poison_rate and rng.random() < self.poison_rate:
                yield self.POISON_PAYLOADS[
                    rng.randrange(len(self.POISON_PAYLOADS))
                ]
            if self.displace_rate and rng.random() < self.displace_rate:
                held.append((position + self.displace_by, element))
            else:
                yield element
            position += 1
        for _release_at, late in sorted(held):
            yield late

    @property
    def clean_elements(self) -> List[StreamElement]:
        """The undisturbed underlying stream."""
        return list(self._elements)


# -- the unified chaos knob ---------------------------------------------------

_RATE_FIELDS = (
    "source_poison_rate", "source_displace_rate", "sink_failure_rate",
)


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded description of every fault the harness can inject,
    consumed by the engine's :class:`~repro.runtime.ingress.Ingress`
    (``EngineConfig(resilient=True, chaos=...)``):

    * ``source_poison_rate`` / ``source_displace_rate`` /
      ``source_displace_by`` — the :class:`FlakySource` knobs;
    * ``sink_failure_rate`` — scheduled :class:`FlakySink` failures
      between the resilient delivery layer and the user sink.

    The same ``seed`` drives both axes, so one integer reproduces an
    entire chaotic run.
    """

    seed: int = 0
    source_poison_rate: float = 0.0
    source_displace_rate: float = 0.0
    source_displace_by: int = 2
    sink_failure_rate: float = 0.0
    #: Schedule horizon for the seeded sink-failure schedule.
    limit: int = 1000

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise EngineError(f"{name} must be in [0, 1], got {rate!r}")

    @classmethod
    def profile(cls, seed: int) -> "ChaosConfig":
        """The default CLI chaos profile (``--chaos-seed``): every axis
        on at a modest rate — survivable, but guaranteed to exercise the
        resilience machinery on any non-trivial run."""
        return cls(
            seed=seed,
            source_poison_rate=0.05,
            source_displace_rate=0.1,
            sink_failure_rate=0.05,
        )

    # -- what is switched on -------------------------------------------

    @property
    def wants_source_chaos(self) -> bool:
        return bool(self.source_poison_rate or self.source_displace_rate)

    @property
    def wants_sink_chaos(self) -> bool:
        return bool(self.sink_failure_rate)

    # -- factories for each axis ---------------------------------------

    def source(self, items: Iterable[Any]) -> FlakySource:
        """Wrap a payload sequence in the seeded :class:`FlakySource`."""
        return FlakySource(
            items,
            seed=self.seed,
            poison_rate=self.source_poison_rate,
            displace_rate=self.source_displace_rate,
            displace_by=self.source_displace_by,
        )

    def sink_schedule(self) -> FailureSchedule:
        if not self.sink_failure_rate:
            return FailureSchedule.never()
        return FailureSchedule.random(
            self.sink_failure_rate, self.seed, self.limit
        )

    def sink(self, inner: Sink) -> FlakySink:
        """Wrap a sink in the seeded :class:`FlakySink`."""
        return FlakySink(self.sink_schedule(), inner=inner)
