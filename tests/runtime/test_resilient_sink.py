"""Tests for sink fault isolation: retries, breaker, fallback."""

import pytest

from repro.errors import CircuitOpenError, SinkDeliveryError
from repro.graph.table import Table
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.faults import FailureSchedule, FlakySink
from repro.runtime.policies import FaultPolicy
from repro.runtime.resilient_sink import (
    CircuitBreaker,
    ResilientSink,
    RetryPolicy,
)
from repro.seraph.sinks import CollectingSink, Emission
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import TimeAnnotatedTable


def emission(instant=0):
    table = TimeAnnotatedTable(
        table=Table.empty(["x"]), interval=TimeInterval(instant, instant + 1)
    )
    return Emission(query_name="q", instant=instant, table=table)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRetryPolicy:
    def test_delays_are_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5, seed=3)
        assert policy.delays() == policy.delays()
        assert len(policy.delays()) == 4

    def test_delays_grow_up_to_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=2.0, max_delay=4.0,
            jitter=0.0,
        )
        assert policy.delays() == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_at_least_one_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetries:
    def test_transient_failures_are_retried_to_success(self):
        sleeps = []
        flaky = FlakySink(FailureSchedule.first(2))
        sink = ResilientSink(
            flaky, retry=RetryPolicy(max_attempts=4), sleep=sleeps.append,
            registry=MetricsRegistry(),
        )
        sink.receive(emission())
        assert flaky.calls == 3
        assert len(flaky.delivered) == 1
        assert len(sleeps) == 2
        assert sink.registry.value("resilience.retried") == 2
        assert sink.registry.value("resilience.sink_failures") == 2
        assert sink.registry.value("resilience.sink_deliveries") == 1

    def test_exhausted_retries_dead_letter_the_emission(self):
        registry = MetricsRegistry()
        dlq = DeadLetterQueue(registry=registry)
        flaky = FlakySink(FailureSchedule.first(100))
        sink = ResilientSink(
            flaky, retry=RetryPolicy(max_attempts=3),
            sleep=lambda _: None, dead_letters=dlq, registry=registry,
        )
        sink.receive(emission(instant=9))
        assert flaky.calls == 3
        assert len(dlq) == 1
        assert dlq.entries[0].instant == 9
        assert "3 delivery attempt" in dlq.entries[0].reason

    def test_exhausted_retries_raise_under_fail_fast(self):
        flaky = FlakySink(FailureSchedule.first(100))
        sink = ResilientSink(
            flaky, retry=RetryPolicy(max_attempts=2),
            sleep=lambda _: None, failure_policy=FaultPolicy.FAIL_FAST,
        )
        with pytest.raises(SinkDeliveryError):
            sink.receive(emission())

    def test_fallback_receives_undeliverable_emissions(self):
        fallback = CollectingSink()
        registry = MetricsRegistry()
        flaky = FlakySink(FailureSchedule.first(100))
        sink = ResilientSink(
            flaky, retry=RetryPolicy(max_attempts=2),
            sleep=lambda _: None, fallback=fallback, registry=registry,
        )
        sink.receive(emission())
        assert len(fallback.emissions) == 1
        assert registry.value("resilience.fallback_deliveries") == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_recovery_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, recovery_timeout=10.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2


class TestBreakerIntegration:
    def test_open_breaker_short_circuits_deliveries(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        dlq = DeadLetterQueue(registry=registry)
        flaky = FlakySink(FailureSchedule.first(100))
        sink = ResilientSink(
            flaky,
            retry=RetryPolicy(max_attempts=2),
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_timeout=30.0, clock=clock
            ),
            sleep=lambda _: None,
            dead_letters=dlq,
            registry=registry,
        )
        sink.receive(emission(0))  # 2 attempts fail -> breaker failure 1
        sink.receive(emission(1))  # 2 attempts fail -> breaker opens
        calls_before = flaky.calls
        sink.receive(emission(2))  # short-circuited: sink untouched
        assert flaky.calls == calls_before
        assert registry.value("resilience.short_circuited") == 1
        assert registry.value("resilience.breaker_opens") == 1
        assert len(dlq) == 3

    def test_breaker_open_raises_under_fail_fast(self):
        clock = FakeClock()
        flaky = FlakySink(FailureSchedule.first(100))
        sink = ResilientSink(
            flaky,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=1, clock=clock),
            sleep=lambda _: None,
            failure_policy=FaultPolicy.FAIL_FAST,
        )
        with pytest.raises(SinkDeliveryError):
            sink.receive(emission(0))
        with pytest.raises(CircuitOpenError):
            sink.receive(emission(1))

    def test_recovered_sink_closes_breaker_and_delivers(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        flaky = FlakySink(FailureSchedule.first(2))
        sink = ResilientSink(
            flaky,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_timeout=5.0, clock=clock
            ),
            sleep=lambda _: None,
            registry=registry,
        )
        sink.receive(emission(0))  # fails, breaker 1/2
        sink.receive(emission(1))  # fails, breaker opens
        clock.now = 5.0
        sink.receive(emission(2))  # half-open probe succeeds
        assert sink.breaker.state == CircuitBreaker.CLOSED
        sink.receive(emission(3))
        assert len(flaky.delivered) == 2
