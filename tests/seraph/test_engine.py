"""Unit tests for the continuous engine (Figure 5 pipeline)."""

import pytest

from repro.errors import QueryRegistryError
from repro.graph.temporal import MINUTE
from repro.seraph import CollectingSink, SeraphEngine, parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream
from repro.stream.window import ActiveSubstreamPolicy
from repro.usecases.micromobility import (
    LISTING5_SERAPH,
    RentalStreamConfig,
    RentalStreamGenerator,
    _t,
    figure1_stream,
)

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals
  SNAPSHOT EVERY PT5M
}
"""


class TestIngestionAndFiring:
    def test_push_pull_api(self, rental_stream):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        for element in rental_stream:
            engine.advance_to(element.instant - 1)
            engine.ingest(element.graph, element.instant)
        emissions = engine.advance_to(_t("15:40"))
        final = emissions[-1]
        assert final.table.table.records[0]["rentals"] == 4

    def test_evaluation_at_event_instant_sees_the_event(self, rental_stream):
        # TRAILING membership is (ω−α, ω]: the 15:15 event is visible at
        # the 15:15 evaluation — the paper's 15:15h narrative.
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(COUNT_QUERY, sink=sink)
        engine.run_stream(rental_stream[:3])  # up to 15:15
        final = sink.emissions[-1]
        assert final.instant == _t("15:15")
        assert final.table.table.records[0]["rentals"] == 3

    def test_emissions_in_et_order(self, rental_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(COUNT_QUERY, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        instants = [emission.instant for emission in sink.emissions]
        assert instants == sorted(instants)
        assert all(b - a == 5 * MINUTE for a, b in zip(instants, instants[1:]))

    def test_advance_is_idempotent(self, rental_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(COUNT_QUERY, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        count = len(sink.emissions)
        engine.advance_to(_t("15:40"))  # nothing new due
        assert len(sink.emissions) == count


class TestEngineMatchesDenotationalSemantics:
    @pytest.mark.parametrize("reference", [False, True])
    def test_listing5_both_modes(self, rental_stream, reference):
        engine = SeraphEngine(reference=reference)
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        reference = continuous_run(
            parse_seraph(LISTING5_SERAPH),
            PropertyGraphStream(rental_stream),
            _t("15:40"),
        )
        assert len(sink.emissions) == len(reference)
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected)

    def test_formal_policy_mode(self, rental_stream):
        engine = SeraphEngine(policy=ActiveSubstreamPolicy.EARLIEST_CONTAINING)
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        reference = continuous_run(
            parse_seraph(LISTING5_SERAPH),
            PropertyGraphStream(rental_stream),
            _t("15:40"),
            ActiveSubstreamPolicy.EARLIEST_CONTAINING,
        )
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected)


class TestMultipleQueries:
    def test_two_queries_evaluate_independently(self, rental_stream):
        engine = SeraphEngine()
        returns_query = COUNT_QUERY.replace("rentedAt", "returnedAt").replace(
            "REGISTER QUERY rentals", "REGISTER QUERY returns"
        )
        sink_a = CollectingSink()
        sink_b = CollectingSink()
        engine.register(COUNT_QUERY, sink=sink_a)
        engine.register(returns_query, sink=sink_b)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert sink_a.at(_t("15:40")).table.table.records[0]["rentals"] == 4
        assert sink_b.at(_t("15:40")).table.table.records[0]["rentals"] == 4

    def test_queries_with_different_slides(self, rental_stream):
        engine = SeraphEngine()
        fast = COUNT_QUERY.replace("PT5M", "PT1M").replace(
            "REGISTER QUERY rentals", "REGISTER QUERY fast"
        )
        sink_fast = CollectingSink()
        sink_slow = CollectingSink()
        engine.register(fast, sink=sink_fast)
        engine.register(COUNT_QUERY, sink=sink_slow)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink_fast.emissions) == 56  # every minute 14:45..15:40
        assert len(sink_slow.emissions) == 12


class TestRegistryContract:
    def test_duplicate_name_rejected(self):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        with pytest.raises(QueryRegistryError):
            engine.register(COUNT_QUERY)

    def test_replace_resets_state(self, rental_stream):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        engine.run_stream(rental_stream[:2])
        replaced = engine.register(COUNT_QUERY, replace=True)
        assert replaced.counters["evaluations"].value == 0

    def test_deregister(self):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        engine.deregister("rentals")
        assert "rentals" not in engine.query_names
        with pytest.raises(QueryRegistryError):
            engine.deregister("rentals")

    def test_registered_lookup(self):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        assert engine.registered("rentals").query.name == "rentals"
        with pytest.raises(QueryRegistryError):
            engine.registered("nope")


class TestReturnTerminal:
    def test_one_shot_query_fires_once_and_stops(self, rental_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(
            """
            REGISTER QUERY once STARTING AT 2022-08-01T15:00
            { MATCH ()-[r:rentedAt]->() WITHIN PT1H RETURN count(r) AS n }
            """,
            sink=sink,
        )
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink.emissions) == 1
        assert sink.emissions[0].instant == _t("15:00")
        assert sink.emissions[0].table.table.records[0]["n"] == 3
        assert engine.registered("once").done


class TestFigure5Pipeline:
    def test_figure5_pipeline_stages(self, rental_stream):
        """Figure 5's stages, observed end to end on one evaluation:
        (1) window → substream, (2) substream → snapshot graph,
        (3) MATCH/WHERE/WITH over the snapshot, (4) EMIT → stream of
        time-annotated tables, (5) RETURN → a single one."""
        from repro.seraph.semantics import window_config
        from repro.stream.snapshot import snapshot_graph
        from repro.stream.stream import PropertyGraphStream
        from repro.seraph.parser import parse_seraph

        query = parse_seraph(LISTING5_SERAPH)
        stream = PropertyGraphStream(rental_stream)
        instant = _t("15:15")
        # (1) the window operator selects the active substream.
        config = window_config(query, query.max_within)
        substream = config.active_substream(stream, instant)
        assert [element.instant for element in substream] == [
            _t("14:45"), _t("15:00"), _t("15:15"),
        ]
        # (2) the substream unions into a snapshot graph.
        snapshot = snapshot_graph(substream)
        assert snapshot.order == 6 and snapshot.size == 5
        # (3)+(4) the engine evaluates the clause pipeline over it and
        # emits a time-annotated table.
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(query, sink=sink)
        engine.run_stream(rental_stream, until=instant)
        emission = sink.at(instant)
        assert emission.table.win_end == instant
        assert [record["user_id"] for record in emission.table] == [1234]
        # (5) the RETURN variant produces exactly one table and stops.
        one_shot = parse_seraph(
            LISTING5_SERAPH.replace("student_trick", "one_shot")
            .replace("EMIT", "RETURN")
            .replace("ON ENTERING EVERY PT5M", "")
        )
        engine2 = SeraphEngine()
        sink2 = CollectingSink()
        engine2.register(one_shot, sink=sink2)
        engine2.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink2.emissions) == 1
        assert engine2.registered("one_shot").done


class TestStateTracking:
    def test_time_varying_table_populated(self, rental_stream):
        engine = SeraphEngine()
        registered = engine.register(LISTING5_SERAPH)
        engine.run_stream(rental_stream, until=_t("15:40"))
        result = registered.result
        assert registered.counters["evaluations"].value == 12
        # Retained: Ψ from the horizon the next evaluation (15:45) can
        # still reach — every entry whose window closed after 14:45.
        assert [entry.interval.end for entry in result] == [
            _t("14:50") + 300 * k for k in range(11)
        ]
        result.check_constraints()
        # Ψ(ω) at 15:16 resolves to the 15:15 window's (full) table.
        at_1516 = result.at(_t("15:16") - 60 * 59)  # inside [14:15,15:15)
        assert at_1516 is not None

    def test_time_varying_table_stays_bounded(self):
        """A long-running query keeps about one table per slide of its
        window width, not one per evaluation ever made."""
        stream = RentalStreamGenerator(
            RentalStreamConfig(events=500, seed=2)
        ).stream()
        engine = SeraphEngine()
        registered = engine.register(COUNT_QUERY.replace("14:45", "08:00"))
        for element in stream:
            engine.ingest_element(element)
            engine.advance_to(element.instant)
        assert registered.counters["evaluations"].value >= 500
        assert len(registered.result) <= 60 // 5 + 1
        registered.result.check_constraints()

    def test_eviction_bounds_memory(self, rental_stream):
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH)
        engine.run_stream(rental_stream, until=_t("17:00"))
        # After 17:00 every event is out of each 1h window's reach.
        assert engine.retained_elements == 0

    def test_no_eviction_while_still_reachable(self, rental_stream):
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH)
        engine.run_stream(rental_stream, until=_t("15:40"))
        # The next evaluation (15:45) reaches (14:45, 15:45]; the 14:45
        # event is already unreachable and evicted, the other four stay.
        assert engine.retained_elements == 4
