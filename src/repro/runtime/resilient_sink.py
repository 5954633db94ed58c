"""Sink fault isolation: retries, backoff, circuit breaker, fallback.

The engine calls ``sink.receive(emission)`` synchronously inside its
evaluation loop, so in the seed a single raised exception in a user sink
kills the whole continuous run.  :class:`ResilientSink` wraps any sink:

* **bounded retries** with exponential backoff and *deterministic*
  (seeded) jitter, so tests and replays see identical schedules;
* a **circuit breaker** (closed → open → half-open) that stops hammering
  a sink that keeps failing and probes it again after a recovery
  timeout;
* an optional **fallback sink** receiving emissions the primary could
  not take, with a dead-letter queue as the quarantine of last resort.

The wall clock is injectable (``sleep``/``clock``) so the fault-injection
tests run in virtual time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import CircuitOpenError, SinkDeliveryError
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.policies import FaultPolicy
from repro.seraph.sinks import Emission, Sink


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with seeded jitter.

    ``max_attempts`` counts the first try too: ``max_attempts=4`` means
    one initial delivery plus up to three retries.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25  # +/- fraction of the nominal delay
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delays(self) -> List[float]:
        """The backoff delay before each retry (deterministic per policy)."""
        rng = random.Random(self.seed)
        delays = []
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            spread = delay * self.jitter
            delays.append(max(0.0, delay + rng.uniform(-spread, spread)))
            delay = min(delay * self.multiplier, self.max_delay)
        return delays


class CircuitBreaker:
    """Closed / open / half-open circuit breaker over failure counts.

    * CLOSED: deliveries flow; ``failure_threshold`` consecutive failures
      trip the breaker OPEN.
    * OPEN: deliveries are refused without touching the sink until
      ``recovery_timeout`` seconds (by ``clock``) have passed.
    * HALF_OPEN: one probe delivery is allowed; success closes the
      breaker, failure re-opens it and restarts the timer.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.clock = clock
        #: counts ``resilience.breaker_opens``; a :class:`ResilientSink`
        #: points it at its own registry.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0

    def allow(self) -> bool:
        """May a delivery be attempted right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.clock() - self.opened_at >= self.recovery_timeout:
                self.state = self.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the single probe in flight

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        if self.state != self.OPEN:
            self.times_opened += 1
            self.registry.inc("resilience.breaker_opens")
        self.state = self.OPEN
        self.opened_at = self.clock()

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.state}, "
                f"failures={self.consecutive_failures}/"
                f"{self.failure_threshold})")


class ResilientSink(Sink):
    """Wraps a sink so its failures never abort the evaluation loop.

    Delivery of one emission:

    1. if the breaker refuses, divert (fallback → dead-letter → policy);
    2. otherwise try the inner sink up to ``retry.max_attempts`` times,
       sleeping the backoff schedule between attempts;
    3. on success, reset the breaker; after the final failure, record it
       on the breaker and divert the emission.

    ``failure_policy`` governs an undeliverable emission with no
    fallback: FAIL_FAST re-raises :class:`SinkDeliveryError` /
    :class:`CircuitOpenError`, SKIP drops it, DEAD_LETTER quarantines it.

    Deliveries, failures, retries, short circuits and fallback
    deliveries count under ``resilience.*`` in ``registry`` (the breaker
    counts there too).  With a ``tracer``
    (:class:`repro.obs.trace.Tracer`), every delivery attempt opens a
    ``sink_attempt`` span — ambient-parented, so it nests under the
    engine's ``sink`` span when one is open.
    """

    def __init__(
        self,
        inner: Sink,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        fallback: Optional[Sink] = None,
        failure_policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        dead_letters: Optional[DeadLetterQueue] = None,
        registry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
        tracer=None,
    ):
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._delivered = self.registry.counter("resilience.sink_deliveries")
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.breaker.registry = self.registry
        self.fallback = fallback
        self.failure_policy = failure_policy
        self.dead_letters = dead_letters
        self.sleep = sleep
        self.tracer = tracer

    def receive(self, emission: Emission) -> None:
        if not self.breaker.allow():
            self.registry.inc("resilience.short_circuited")
            self._divert(
                emission,
                reason="circuit breaker open",
                error=CircuitOpenError(
                    f"circuit breaker open for query "
                    f"{emission.query_name!r}"
                ),
            )
            return
        probing = self.breaker.state == CircuitBreaker.HALF_OPEN
        delays = self.retry.delays()
        attempts = 1 if probing else self.retry.max_attempts
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                if self.tracer is not None:
                    with self.tracer.span(
                        "sink_attempt", attempt=attempt + 1
                    ) as span:
                        try:
                            self.inner.receive(emission)
                        except Exception as exc:
                            span.annotate(
                                outcome="error", error=type(exc).__name__
                            )
                            raise
                        span.annotate(outcome="delivered")
                else:
                    self.inner.receive(emission)
            except Exception as exc:  # noqa: BLE001 — isolate *any* sink bug
                last_error = exc
                self.registry.inc("resilience.sink_failures")
                if attempt + 1 < attempts:
                    self.registry.inc("resilience.retried")
                    self.sleep(delays[attempt])
            else:
                self.breaker.record_success()
                self._delivered.inc()
                return
        self.breaker.record_failure()
        self._divert(
            emission,
            reason=(
                f"sink failed {attempts} delivery attempt(s): {last_error}"
            ),
            error=last_error,
        )

    def _divert(
        self,
        emission: Emission,
        reason: str,
        error: Optional[BaseException],
    ) -> None:
        if self.fallback is not None:
            try:
                self.fallback.receive(emission)
            except Exception:  # noqa: BLE001 — fallback failed too
                pass
            else:
                self.registry.inc("resilience.fallback_deliveries")
                return
        if self.failure_policy is FaultPolicy.FAIL_FAST:
            if isinstance(error, SinkDeliveryError):
                raise error
            raise SinkDeliveryError(reason) from error
        if self.failure_policy is FaultPolicy.DEAD_LETTER:
            if self.dead_letters is not None:
                self.dead_letters.append(
                    emission,
                    reason=reason,
                    error=error,
                    instant=emission.instant,
                )
