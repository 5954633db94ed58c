"""Row-exact reproduction of the paper's running example.

Covers Figure 1 (the stream), Figure 2 (the merged graph), Table 2 (the
one-time Cypher result), Table 4 (its time-annotated extension), and
Tables 5/6 (the Seraph outputs at 15:15h and 15:40h) — plus the full
evaluation narrative of Section 5.4.  The Listing 5 run is repeated
under both behaviours of ``tests/modes.py`` (production and the
reference twin).
"""

import pytest

from repro.cypher import run_cypher
from repro.graph.table import Record, Table
from repro.seraph import CollectingSink, SeraphEngine, parse_seraph
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import WIN_END, WIN_START
from repro.usecases.micromobility import (
    LISTING1_CYPHER,
    LISTING5_SERAPH,
    TABLE2_EXPECTED,
    TABLE5_EXPECTED,
    TABLE5_WINDOW,
    TABLE6_EXPECTED,
    TABLE6_WINDOW,
    _t,
    figure1_stream,
    figure2_graph,
)

from ..modes import (
    MODES,
    STACKS,
    assert_equals_denotation,
    renders,
    run_mode,
)


def expected_table(rows):
    return Table([Record(dict(row)) for row in rows],
                 fields={"user_id", "station_id", "val_time", "hops"})


class TestFigure1:
    def test_five_events_at_documented_instants(self, rental_stream):
        assert [element.instant for element in rental_stream] == [
            _t("14:45"), _t("15:00"), _t("15:15"), _t("15:20"), _t("15:40"),
        ]

    def test_event_contents_match_narrative(self, rental_stream):
        # 14:45h: one rental (E-bike 5 at station 1 by user 1234 at 14:40).
        first = rental_stream[0].graph
        assert first.size == 1
        rental = next(iter(first.relationships.values()))
        assert rental.type == "rentedAt"
        assert rental.property("user_id") == 1234
        assert rental.property("val_time") == _t("14:40")
        # 15:00h: one return and two rentals.
        second = rental_stream[1].graph
        types = sorted(rel.type for rel in second.relationships.values())
        assert types == ["rentedAt", "rentedAt", "returnedAt"]

    def test_total_stream_content(self, rental_stream):
        assert sum(element.graph.size for element in rental_stream) == 8


class TestFigure2:
    def test_merged_graph_shape(self, merged_rental_graph):
        # "four station and four bike nodes as well as four rentals of two
        #  users represented by eight timestamped relationships".
        assert merged_rental_graph.order == 8
        assert merged_rental_graph.size == 8
        stations = list(merged_rental_graph.nodes_with_labels(["Station"]))
        bikes = list(merged_rental_graph.nodes_with_labels(["Bike"]))
        assert len(stations) == 4 and len(bikes) == 4

    def test_rental_and_return_counts(self, merged_rental_graph):
        rentals = [rel for rel in merged_rental_graph.relationships.values()
                   if rel.type == "rentedAt"]
        returns = [rel for rel in merged_rental_graph.relationships.values()
                   if rel.type == "returnedAt"]
        assert len(rentals) == 4 and len(returns) == 4

    def test_two_users(self, merged_rental_graph):
        users = {rel.property("user_id")
                 for rel in merged_rental_graph.relationships.values()}
        assert users == {1234, 5678}

    def test_ebike_hierarchy_labels(self, merged_rental_graph):
        # E-bikes carry :Bike:EBike (paper's label-hierarchy remark).
        ebike = merged_rental_graph.node(5)
        assert ebike.labels == frozenset({"Bike", "EBike"})
        classic = merged_rental_graph.node(6)
        assert classic.labels == frozenset({"Bike"})


class TestTable2:
    def test_one_time_cypher_result(self, merged_rental_graph):
        table = run_cypher(
            LISTING1_CYPHER,
            merged_rental_graph,
            parameters={"win_start": _t("14:40"), "win_end": _t("15:40")},
        )
        assert table.bag_equals(expected_table(TABLE2_EXPECTED))

    def test_narrower_window_excludes_late_rentals(self, merged_rental_graph):
        # Shifting the window start past 14:40 drops user 1234's chain.
        table = run_cypher(
            LISTING1_CYPHER,
            merged_rental_graph,
            parameters={"win_start": _t("14:45"), "win_end": _t("15:40")},
        )
        assert [record["user_id"] for record in table] == [5678]


class TestTable4:
    def test_time_annotation_extends_table2(self, merged_rental_graph):
        from repro.stream.tvt import TimeAnnotatedTable

        table = run_cypher(
            LISTING1_CYPHER,
            merged_rental_graph,
            parameters={"win_start": _t("14:40"), "win_end": _t("15:40")},
        )
        annotated = TimeAnnotatedTable(
            table=table, interval=TimeInterval(_t("14:40"), _t("15:40"))
        ).annotated_table()
        assert annotated.fields == frozenset(
            {"user_id", "station_id", "val_time", "hops", WIN_START, WIN_END}
        )
        for record in annotated:
            assert record[WIN_START] == _t("14:40")
            assert record[WIN_END] == _t("15:40")


@pytest.fixture(params=MODES)
def run_listing5(request, rental_stream):
    return run_mode(request.param, LISTING5_SERAPH, rental_stream,
                    _t("15:40"))


class TestTables5And6:
    def test_equals_the_denotational_run(self, run_listing5, rental_stream):
        assert_equals_denotation(run_listing5, LISTING5_SERAPH,
                                 rental_stream, _t("15:40"))

    @pytest.mark.parametrize("stack", [s for s in STACKS if s != "plain"])
    def test_every_stack_is_byte_identical_to_the_plain_engine(
        self, rental_stream, stack
    ):
        """The ingress re-sequences arrivals and wraps the sink; neither
        may change a byte of what Listing 5 emits."""
        sink = run_mode("production", LISTING5_SERAPH, rental_stream,
                        _t("15:40"), stack=stack)
        assert_equals_denotation(sink, LISTING5_SERAPH, rental_stream,
                                 _t("15:40"))
        assert renders(sink) == renders(run_mode(
            "production", LISTING5_SERAPH, rental_stream, _t("15:40")))

    def test_evaluation_count(self, run_listing5):
        # Every 5 minutes from 14:45 through 15:40 inclusive: 12 instants.
        assert len(run_listing5.emissions) == 12

    def test_table5_at_1515(self, run_listing5):
        emission = run_listing5.at(_t("15:15"))
        assert emission.table.table.bag_equals(expected_table(TABLE5_EXPECTED))
        assert (emission.table.win_start, emission.table.win_end) == TABLE5_WINDOW

    def test_table6_at_1540(self, run_listing5):
        emission = run_listing5.at(_t("15:40"))
        assert emission.table.table.bag_equals(expected_table(TABLE6_EXPECTED))
        assert (emission.table.win_start, emission.table.win_end) == TABLE6_WINDOW

    def test_narrative_of_section_5_4(self, run_listing5):
        """14:45h: no match; 15:00h: still no match; 15:15h: user 1234;
        15:20h: nothing new; 15:40h: only the new match (user 5678)."""
        by_instant = {emission.instant: emission
                      for emission in run_listing5.emissions}
        assert by_instant[_t("14:45")].is_empty()
        assert by_instant[_t("15:00")].is_empty()
        assert not by_instant[_t("15:15")].is_empty()
        assert by_instant[_t("15:20")].is_empty()
        assert not by_instant[_t("15:40")].is_empty()

    def test_only_two_emissions_overall(self, run_listing5):
        assert len(run_listing5.non_empty()) == 2

    def test_rendering_matches_paper_format(self, run_listing5):
        rendered = run_listing5.at(_t("15:15")).table.render(
            ["user_id", "station_id", "val_time", WIN_START, WIN_END]
        )
        assert "1234" in rendered
        assert "14:15" in rendered and "15:15" in rendered


class TestSnapshotVariant:
    def test_snapshot_policy_reports_old_matches_again(self, rental_stream):
        """With SNAPSHOT instead of ON ENTERING, 15:40h reports both
        users — the 'regardless of whether already emitted' behaviour."""
        text = LISTING5_SERAPH.replace("ON ENTERING", "SNAPSHOT")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(parse_seraph(text), sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        final = sink.at(_t("15:40"))
        assert sorted(record["user_id"] for record in final.table) == [1234, 5678]

    def test_on_exiting_reports_expired_match(self, rental_stream):
        """The 1234 match leaves the window once the 14:45 event falls out
        (at 15:45, window (14:45, 15:45] no longer holds event 14:45)."""
        text = LISTING5_SERAPH.replace("ON ENTERING", "ON EXITING")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(parse_seraph(text), sink=sink)
        engine.run_stream(rental_stream, until=_t("15:45"))
        final = sink.at(_t("15:45"))
        assert [record["user_id"] for record in final.table] == [1234]
