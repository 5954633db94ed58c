"""Integration tests for an engine that owns a fault-tolerant ingress."""

import pytest

from repro.errors import LateEventError, PoisonMessageError
from repro.runtime import (
    FailureSchedule,
    FaultPolicy,
    FlakySink,
    FlakySource,
    Ingress,
    decode_item,
)
from repro.runtime.resilient_sink import CircuitBreaker, RetryPolicy
from repro.seraph import CollectingSink, SeraphEngine
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals SNAPSHOT EVERY PT5M
}
"""


def emission_key(emission):
    rows = sorted(
        tuple(sorted((name, repr(value)) for name, value in record.items()))
        for record in emission.table
    )
    return (emission.query_name, emission.instant, rows)


def resilient_engine(**ingress_options):
    return SeraphEngine(ingress=Ingress(**ingress_options))


def counter(engine, name):
    return engine.obs.registry.value(f"resilience.{name}")


def bare_emissions(query=LISTING5_SERAPH, until=None):
    engine = SeraphEngine()
    engine.register(query)
    return engine.run_stream(figure1_stream(), until=until)


class TestCleanPathTransparency:
    def test_clean_run_matches_bare_engine(self):
        resilient = resilient_engine()
        resilient.register(LISTING5_SERAPH)
        emissions = resilient.run_stream(figure1_stream(),
                                         until=_t("15:40"))
        baseline = bare_emissions(until=_t("15:40"))
        assert list(map(emission_key, emissions)) == list(
            map(emission_key, baseline)
        )
        assert counter(resilient, "ingested") == 5
        assert len(resilient.dead_letters) == 0

    def test_collecting_sink_reachable_through_wrapper(self):
        resilient = resilient_engine()
        resilient.register(COUNT_QUERY)
        resilient.run_stream(figure1_stream())
        sink = resilient.sink("rentals")
        assert isinstance(sink, CollectingSink)
        assert len(sink.emissions) == 12


class TestPoisonHandling:
    POISON = [
        "not json",
        {"instant": "NaN", "graph": {"nodes": [], "relationships": []}},
        {"graph": {}},
        1234,
        StreamElement(graph=None, instant=3),
    ]

    def test_poison_dead_lettered_and_run_survives(self):
        resilient = resilient_engine()
        resilient.register(COUNT_QUERY)
        stream = figure1_stream()
        items = [stream[0], self.POISON[0], stream[1], self.POISON[1],
                 stream[2], self.POISON[4], stream[3], stream[4]]
        emissions = resilient.run_stream(items, until=_t("15:40"))
        baseline = bare_emissions(COUNT_QUERY, until=_t("15:40"))
        assert list(map(emission_key, emissions)) == list(
            map(emission_key, baseline)
        )
        assert counter(resilient, "poison_rejected") == 3
        assert len(resilient.dead_letters) == 3

    def test_poison_skip_policy_counts_silently(self):
        resilient = resilient_engine(poison_policy=FaultPolicy.SKIP)
        resilient.register(COUNT_QUERY)
        resilient.run_stream([self.POISON[0]] + figure1_stream())
        assert counter(resilient, "poison_skipped") == 1
        assert len(resilient.dead_letters) == 0

    def test_poison_fail_fast_raises(self):
        resilient = resilient_engine(poison_policy=FaultPolicy.FAIL_FAST)
        resilient.register(COUNT_QUERY)
        with pytest.raises(PoisonMessageError):
            resilient.ingest_element("garbage")

    @pytest.mark.parametrize("payload", POISON)
    def test_decode_item_rejects_each_poison_shape(self, payload):
        with pytest.raises(PoisonMessageError):
            decode_item(payload)

    def test_decode_item_accepts_wire_payload(self):
        from repro.graph.io import graph_to_dict

        element = figure1_stream()[0]
        payload = {"instant": element.instant,
                   "graph": graph_to_dict(element.graph)}
        assert decode_item(payload) == element


class TestOutOfOrderHandling:
    def test_reordered_run_matches_in_order_run(self):
        stream = figure1_stream()
        shuffled = [stream[1], stream[0], stream[2], stream[4], stream[3]]
        resilient = resilient_engine(allowed_lateness=1200)
        resilient.register(LISTING5_SERAPH)
        emissions = resilient.run_stream(shuffled, until=_t("15:40"))
        baseline = bare_emissions(until=_t("15:40"))
        assert list(map(emission_key, emissions)) == list(
            map(emission_key, baseline)
        )
        assert counter(resilient, "reordered") == 2

    def test_too_late_event_is_dead_lettered(self):
        stream = figure1_stream()
        # 14:45 arrives after 15:40 with only 5 minutes of tolerance.
        items = [stream[1], stream[2], stream[3], stream[4], stream[0]]
        resilient = resilient_engine(allowed_lateness=300)
        resilient.register(COUNT_QUERY)
        resilient.run_stream(items, until=_t("15:40"))
        assert counter(resilient, "late_dropped") == 1
        assert len(resilient.dead_letters) == 1
        assert resilient.dead_letters.entries[0].instant == _t("14:45")

    def test_late_fail_fast_raises(self):
        stream = figure1_stream()
        resilient = resilient_engine(late_policy=FaultPolicy.FAIL_FAST)
        resilient.register(COUNT_QUERY)
        resilient.ingest_element(stream[1])
        with pytest.raises(LateEventError):
            resilient.ingest_element(stream[0])


class TestSinkRecoveryAcceptance:
    """The acceptance scenario: a sink failing deterministically N times
    then recovering loses no emission."""

    def test_no_emission_lost_with_flaky_sink(self):
        failures = 3
        flaky = FlakySink(FailureSchedule.first(failures))
        resilient = resilient_engine(
            retry=RetryPolicy(max_attempts=failures + 1, seed=11),
            sleep=lambda _: None,
        )
        resilient.register(LISTING5_SERAPH, sink=flaky)
        resilient.run_stream(figure1_stream(), until=_t("15:40"))
        baseline = bare_emissions(until=_t("15:40"))
        assert list(map(emission_key, flaky.delivered)) == list(
            map(emission_key, baseline)
        )
        assert flaky.failures == failures
        assert counter(resilient, "sink_failures") == failures
        assert counter(resilient, "retried") == failures
        assert counter(resilient, "sink_deliveries") == len(baseline)
        assert counter(resilient, "breaker_opens") == 0
        assert len(resilient.dead_letters) == 0

    def test_persistently_failing_sink_trips_breaker_not_the_run(self):
        clock_value = [0.0]
        flaky = FlakySink(FailureSchedule.first(10_000))
        resilient = resilient_engine(
            retry=RetryPolicy(max_attempts=2),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, recovery_timeout=1e9,
                clock=lambda: clock_value[0],
            ),
            sleep=lambda _: None,
        )
        resilient.register(LISTING5_SERAPH, sink=flaky)
        emissions = resilient.run_stream(figure1_stream(),
                                         until=_t("15:40"))
        # The run completed all 12 evaluations despite the dead sink.
        assert len(emissions) == 12
        assert counter(resilient, "breaker_opens") == 1
        assert counter(resilient, "short_circuited") > 0
        # Every emission is quarantined, none silently lost.
        assert len(resilient.dead_letters) == 12

    def test_fallback_sink_catches_undeliverable_emissions(self):
        fallback = CollectingSink()
        flaky = FlakySink(FailureSchedule.first(10_000))
        resilient = resilient_engine(
            retry=RetryPolicy(max_attempts=1),
            sleep=lambda _: None,
        )
        resilient.register(LISTING5_SERAPH, sink=flaky, fallback=fallback)
        baseline = bare_emissions(until=_t("15:40"))
        resilient.run_stream(figure1_stream(), until=_t("15:40"))
        assert list(map(emission_key, fallback.emissions)) == list(
            map(emission_key, baseline)
        )


class TestRuntimeCheckpoint:
    def test_mid_stream_checkpoint_with_buffered_elements(self):
        """The reorder buffer contents survive the checkpoint: elements
        not yet released to the engine are not lost."""
        stream = figure1_stream()
        resilient = resilient_engine(allowed_lateness=1200)
        resilient.register(LISTING5_SERAPH)
        emissions = []
        for element in [stream[1], stream[0], stream[2]]:
            emissions.extend(resilient.ingest_element(element))
        document = resilient.checkpoint_json()
        restored = SeraphEngine.from_checkpoint(document)
        for element in [stream[3], stream[4]]:
            emissions.extend(restored.ingest_element(element))
        emissions.extend(restored.flush(_t("15:40")))
        baseline = bare_emissions(until=_t("15:40"))
        assert list(map(emission_key, emissions)) == list(
            map(emission_key, baseline)
        )

    def test_metrics_and_dead_letters_survive_restore(self):
        resilient = resilient_engine()
        resilient.register(COUNT_QUERY)
        resilient.ingest_element("poison")
        resilient.ingest_element(figure1_stream()[0])
        restored = SeraphEngine.from_checkpoint(resilient.checkpoint())
        assert counter(restored, "poison_rejected") == 1
        assert counter(restored, "ingested") == 1
        assert counter(restored, "checkpoints") == 1
        assert counter(restored, "restores") == 1
        assert len(restored.dead_letters) == 1
        assert restored.dead_letters.total_appended == 1

    def test_restored_sinks_are_wrapped(self, tmp_path):
        from repro.runtime import load_checkpoint
        from repro.runtime.resilient_sink import ResilientSink

        resilient = resilient_engine()
        resilient.register(COUNT_QUERY)
        path = str(tmp_path / "cp.json")
        resilient.save_checkpoint(path)
        restored = load_checkpoint(path)
        assert isinstance(restored.registered("rentals").sink, ResilientSink)


class TestFlakySource:
    def test_same_seed_same_sequence(self):
        stream = figure1_stream()
        first = list(FlakySource(stream, seed=5, poison_rate=0.3,
                                 displace_rate=0.3))
        second = list(FlakySource(stream, seed=5, poison_rate=0.3,
                                  displace_rate=0.3))
        assert [repr(item) for item in first] == [
            repr(item) for item in second
        ]

    def test_all_clean_elements_eventually_emitted(self):
        stream = figure1_stream()
        source = FlakySource(stream, seed=9, poison_rate=0.4,
                             displace_rate=0.5, displace_by=2)
        emitted = [item for item in source
                   if isinstance(item, StreamElement)]
        assert sorted(emitted, key=lambda el: el.instant) == stream

    def test_status_surfaces_resilience_info(self):
        resilient = resilient_engine(allowed_lateness=60)
        resilient.register(COUNT_QUERY)
        resilient.ingest_element("poison")
        status = resilient.status()
        assert status["resilience"]["allowed_lateness"] == 60
        assert status["resilience"]["dead_letters"] == 1
        assert status["resilience"]["metrics"]["poison_rejected"] == 1
