"""Deterministic fault injection: the chaos harness for the runtime.

Every component here is seeded or schedule-driven, never wall-clock or
global-random dependent, so a failing test reproduces exactly:

* :class:`FailureSchedule` — decides, per call index, whether to fail
  (explicit indices, "first N", "every Kth", or a seeded random rate);
* :class:`FlakySink` — a sink that raises per schedule, recording every
  attempt and every successful delivery;
* :class:`FlakySource` — wraps a clean element sequence and injects
  poison payloads and displaced (late) events per seed;
* :class:`ChaosConfig` / :class:`ChaosInjector` — one seeded knob
  (``EngineConfig(chaos=...)``, ``--chaos-seed`` on the CLI) driving
  every fault axis at once: worker murder, delayed/dropped task
  results, and poison task bursts against the supervised process pools
  (:mod:`repro.runtime.supervisor`), plus poison payloads / displaced
  events at the source and scheduled sink failures — so tests, the CLI,
  and the chaos benchmarks share a single deterministic fault path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.seraph.sinks import CollectingSink, Emission, Sink
from repro.stream.stream import StreamElement


class InjectedSinkFailure(RuntimeError):
    """The error a :class:`FlakySink` raises on a scheduled failure."""


class ChaosPoisonError(RuntimeError):
    """The error a chaos-poisoned worker task raises.

    Must stay trivially picklable: it crosses the process boundary as a
    future's exception.  The pool supervisor treats it like any other
    task failure — retry, then degrade — which is exactly the point.
    """


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

#: Worker-side chaos directives (shipped inside the task payload).
KILL_WORKER = "kill"
DELAY_RESULT = "delay"
POISON_TASK = "poison"
#: Parent-side directive: the task runs, its result is discarded.
DROP_RESULT = "drop"

_RATE_FIELDS = (
    "worker_kill_rate", "worker_poison_rate", "result_delay_rate",
    "result_drop_rate", "source_poison_rate", "source_displace_rate",
    "sink_failure_rate",
)


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded description of every fault the harness can inject.

    Worker axis (consumed by :class:`repro.runtime.supervisor.PoolSupervisor`
    through a :class:`ChaosInjector`):

    * ``worker_kill_rate`` — probability a task's worker process calls
      ``os._exit`` mid-task, breaking the whole pool;
    * ``worker_poison_rate`` — probability a task raises
      :class:`ChaosPoisonError` instead of evaluating (a poison
      snapshot burst);
    * ``result_delay_rate`` / ``delay_seconds`` — probability a worker
      sleeps before returning;
    * ``result_drop_rate`` — probability the parent discards a
      completed task's result (a lost response).

    Stream/sink axis (consumed by the engine's
    :class:`~repro.runtime.ingress.Ingress` when built with
    ``EngineConfig(resilient=True, chaos=...)``):

    * ``source_poison_rate`` / ``source_displace_rate`` /
      ``source_displace_by`` — the :class:`FlakySource` knobs;
    * ``sink_failure_rate`` — scheduled :class:`FlakySink` failures
      between the resilient delivery layer and the user sink.

    The same ``seed`` drives every axis, so one integer reproduces an
    entire chaotic run.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    worker_poison_rate: float = 0.0
    result_delay_rate: float = 0.0
    result_drop_rate: float = 0.0
    delay_seconds: float = 0.01
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
        if self.delay_seconds < 0:
            raise EngineError("delay_seconds must be >= 0")

    @classmethod
    def profile(cls, seed: int) -> "ChaosConfig":
        """The default CLI chaos profile (``--chaos-seed``): every axis
        on at a modest rate — survivable, but guaranteed to exercise the
        supervision and resilience machinery on any non-trivial run."""
        return cls(
            seed=seed,
            worker_kill_rate=0.05,
            worker_poison_rate=0.05,
            result_delay_rate=0.05,
            result_drop_rate=0.05,
            source_poison_rate=0.05,
            source_displace_rate=0.1,
            sink_failure_rate=0.05,
        )

    # -- what is switched on -------------------------------------------

    @property
    def wants_worker_chaos(self) -> bool:
        return bool(
            self.worker_kill_rate or self.worker_poison_rate
            or self.result_delay_rate or self.result_drop_rate
        )

    @property
    def wants_source_chaos(self) -> bool:
        return bool(self.source_poison_rate or self.source_displace_rate)

    @property
    def wants_sink_chaos(self) -> bool:
        return bool(self.sink_failure_rate)

    # -- factories for each axis ---------------------------------------

    def injector(self) -> "ChaosInjector":
        """The parent-side directive source for the pool supervisor."""
        return ChaosInjector(self)

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


class ChaosInjector:
    """Seeded per-attempt directive source for the worker chaos axis.

    Lives in the parent process and is consulted once per task
    *submission attempt* (not per task), so a retried task rolls a fresh
    directive — an injected fault never deterministically re-fires on
    the retry, which is what lets chaotic runs converge.  All draws
    happen sequentially in the parent, so a given seed always produces
    the same directive sequence regardless of worker scheduling.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.kills = 0
        self.poisons = 0
        self.delays = 0
        self.drops = 0

    def directive(self) -> Optional[Tuple]:
        """The chaos verdict for one submission attempt (or ``None``)."""
        config = self.config
        roll = self._rng.random()
        edge = config.worker_kill_rate
        if roll < edge:
            self.kills += 1
            return (KILL_WORKER,)
        edge += config.worker_poison_rate
        if roll < edge:
            self.poisons += 1
            return (POISON_TASK, self.poisons)
        edge += config.result_delay_rate
        if roll < edge:
            self.delays += 1
            return (DELAY_RESULT, config.delay_seconds)
        edge += config.result_drop_rate
        if roll < edge:
            self.drops += 1
            return (DROP_RESULT,)
        return None

    def as_dict(self) -> Dict[str, int]:
        return {
            "seed": self.config.seed,
            "kills": self.kills,
            "poisons": self.poisons,
            "delays": self.delays,
            "drops": self.drops,
        }
