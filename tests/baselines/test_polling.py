"""Unit tests for the Cypher polling workaround (Section 3.3)."""

import pytest

from repro.baselines.polling import CypherPollingBaseline
from repro.graph.temporal import HOUR, MINUTE
from repro.seraph import CollectingSink, SeraphEngine
from repro.stream.report import ReportPolicy
from repro.usecases.micromobility import (
    LISTING1_CYPHER,
    LISTING5_SERAPH,
    RentalStreamConfig,
    RentalStreamGenerator,
    _t,
    student_trick_query,
)

# student_trick_query()'s bounded chain (*3..3) as a polled one-time query
# whose val_time filters emulate the window over the ever-growing store.
BOUNDED_POLLING_CYPHER = """
MATCH (b:Bike)-[r:rentedAt]->(s:Station),
      q = (b)-[:returnedAt|rentedAt*3..3]-(o:Station)
WITH r, s, q, relationships(q) AS rels,
     [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops
WHERE $win_start <= r.val_time AND r.val_time < $win_end
  AND ALL(e IN rels WHERE
        $win_start <= e.val_time AND e.val_time < $win_end
        AND e.user_id = r.user_id
        AND e.val_time > r.val_time
        AND (e.duration IS NULL OR e.duration < 20))
RETURN r.user_id AS user_id, s.id AS station_id,
       r.val_time AS val_time, hops
"""


def make_baseline(report=ReportPolicy.SNAPSHOT):
    return CypherPollingBaseline(
        LISTING1_CYPHER,
        starting_at=_t("14:45"),
        width=HOUR,
        period=5 * MINUTE,
        report=report,
    )


class TestStoreGrowth:
    def test_store_accumulates_forever(self, rental_stream):
        baseline = make_baseline()
        for element in rental_stream:
            baseline.load(element)
        # The persisted graph is the full Figure 2 merge — nothing evicted.
        assert baseline.store.order == 8 and baseline.store.size == 8

    def test_merge_is_incremental(self, rental_stream):
        baseline = make_baseline()
        baseline.load(rental_stream[0])
        assert baseline.store.size == 1
        baseline.load(rental_stream[1])
        assert baseline.store.size == 4


class TestPolling:
    def test_poll_instants(self, rental_stream):
        baseline = make_baseline()
        results = baseline.run_stream(rental_stream, until=_t("15:40"))
        assert [poll.instant for poll in results] == [
            _t("14:45") + index * 5 * MINUTE for index in range(12)
        ]

    def test_window_parameters_passed(self, rental_stream):
        baseline = make_baseline()
        results = baseline.run_stream(rental_stream, until=_t("15:40"))
        final = results[-1]
        assert final.table.win_start == _t("14:40")
        assert final.table.win_end == _t("15:40")

    def test_agrees_with_seraph_on_running_example(self, rental_stream):
        """Snapshot reducibility in practice: the externally-driven
        Cypher workaround and the native Seraph engine report the same
        rows on the running example (val_time filters emulate windows)."""
        baseline = make_baseline(report=ReportPolicy.ON_ENTERING)
        polls = baseline.run_stream(rental_stream, until=_t("15:40"))

        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))

        assert len(polls) == len(sink.emissions)
        for poll, emission in zip(polls, sink.emissions):
            poll_users = sorted(record["user_id"] for record in poll.table)
            seraph_users = sorted(
                record["user_id"] for record in emission.table
            )
            assert poll_users == seraph_users

    def test_agrees_with_seraph_on_a_dense_generated_stream(self):
        """The same detected users on a generated stream where several
        fraud chains overlap in one window."""
        generator = RentalStreamGenerator(RentalStreamConfig(
            events=12, seed=7, stations=10, users=25, vehicles=30,
        ))
        stream = generator.stream()
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(student_trick_query(), sink=sink)
        engine.run_stream(stream)
        seraph_users = {
            record["user_id"]
            for emission in sink.emissions for record in emission.table
        }
        polls = CypherPollingBaseline(
            BOUNDED_POLLING_CYPHER,
            starting_at=generator.config.start + generator.config.event_period,
            width=HOUR,
            period=5 * MINUTE,
            report=ReportPolicy.ON_ENTERING,
        ).run_stream(stream)
        polling_users = {
            record["user_id"] for poll in polls for record in poll.table
        }
        assert len(seraph_users) > 1
        assert seraph_users == polling_users

    def test_snapshot_policy_re_reports(self, rental_stream):
        baseline = make_baseline(report=ReportPolicy.SNAPSHOT)
        results = baseline.run_stream(rental_stream, until=_t("15:40"))
        final = results[-1]
        assert sorted(record["user_id"] for record in final.table) == [
            1234, 5678,
        ]
