"""Tests for shared window state across concurrent queries (Section 6)."""

from repro.seraph import CollectingSink, SeraphEngine, parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

SECOND_QUERY = LISTING5_SERAPH.replace("student_trick", "second")
COUNT_QUERY = """
REGISTER QUERY counts STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals SNAPSHOT EVERY PT5M
}
"""


class TestSharing:
    def test_identical_configs_share_state(self, rental_stream):
        engine = SeraphEngine()
        first = engine.register(LISTING5_SERAPH)
        second = engine.register(SECOND_QUERY)
        key = ("default", 3600)
        assert first.windows[key] is second.windows[key]

    def test_same_window_different_body_shares(self, rental_stream):
        engine = SeraphEngine()
        first = engine.register(LISTING5_SERAPH)
        counts = engine.register(COUNT_QUERY)
        assert first.windows[("default", 3600)] is \
            counts.windows[("default", 3600)]

    def test_different_width_not_shared(self):
        engine = SeraphEngine()
        first = engine.register(LISTING5_SERAPH)
        narrow = engine.register(
            SECOND_QUERY.replace("WITHIN PT1H", "WITHIN PT30M")
        )
        assert ("default", 1800) in narrow.windows
        assert ("default", 3600) not in narrow.windows or \
            narrow.windows.get(("default", 3600)) is not \
            first.windows[("default", 3600)]

    def test_different_slide_not_shared(self):
        engine = SeraphEngine()
        first = engine.register(LISTING5_SERAPH)
        fast = engine.register(
            SECOND_QUERY.replace("EVERY PT5M", "EVERY PT1M")
        )
        assert first.windows[("default", 3600)] is not \
            fast.windows[("default", 3600)]

    def test_late_registration_gets_private_state(self, rental_stream):
        engine = SeraphEngine()
        first = engine.register(LISTING5_SERAPH)
        engine.run_stream(rental_stream[:2])  # evaluations have fired
        late = engine.register(SECOND_QUERY)
        assert late.windows[("default", 3600)] is not \
            first.windows[("default", 3600)]


class TestSharingIsTransparent:
    def test_emissions_equal_the_denotational_run(self, rental_stream):
        engine = SeraphEngine()
        sink_a = CollectingSink()
        sink_b = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink_a)
        engine.register(COUNT_QUERY, sink=sink_b)
        engine.run_stream(rental_stream, until=_t("15:40"))
        for text, sink in ((LISTING5_SERAPH, sink_a), (COUNT_QUERY, sink_b)):
            reference = continuous_run(
                parse_seraph(text),
                PropertyGraphStream(rental_stream),
                _t("15:40"),
            )
            assert len(sink.emissions) == len(reference)
            for emission, expected in zip(sink.emissions, reference):
                assert emission.table.bag_equals(expected)
        assert sink_b.emissions[-1].table.table.records[0]["rentals"] == 4

    def test_one_shot_sharer_stopping_does_not_break_the_other(
        self, rental_stream
    ):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(COUNT_QUERY, sink=sink)
        engine.register(
            """
            REGISTER QUERY once STARTING AT 2022-08-01T14:45
            { MATCH ()-[r:rentedAt]->() WITHIN PT1H
              RETURN count(r) AS n }
            """
        )
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert engine.registered("once").done
        assert sink.emissions[-1].table.table.records[0]["rentals"] == 4
