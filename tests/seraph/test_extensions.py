"""Tests for the future-work extensions (Sections 6 and 8):

* multiple streams (``FROM STREAM``),
* static graph integration,
* re-execution avoidance on unchanged window contents,
* graph-to-graph construction,
* EXPLAIN introspection.
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.temporal import hhmm
from repro.seraph import (
    CollectingSink,
    ConstructingSink,
    GraphTemplate,
    NodeSpec,
    RelationshipSpec,
    SeraphEngine,
    explain,
    parse_seraph,
)
from repro.seraph.semantics import continuous_run, window_config
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream
from repro.usecases.network import (
    NetworkConfig,
    NetworkStreamGenerator,
    anomalous_routes_query,
)


def event(instant, node_specs, rel_specs=()):
    builder = GraphBuilder()
    for node_id, labels, props in node_specs:
        builder.add_node(labels, props, node_id=node_id)
    for rel_id, src, rel_type, trg, props in rel_specs:
        builder.add_relationship(src, rel_type, trg, props, rel_id=rel_id)
    return StreamElement(graph=builder.build(), instant=instant)


MULTI_STREAM_QUERY = """
REGISTER QUERY correlate STARTING AT 2022-08-01T10:05
{
  MATCH (p:Person)-[s:SEEN]->(l:Location) FROM STREAM sightings WITHIN PT1H
  MATCH (c:Crime)-[o:AT]->(l2:Location) FROM STREAM crimes WITHIN PT2H
  WHERE l.id = l2.id
  EMIT p.id AS person, c.id AS crime
  ON ENTERING EVERY PT5M
}
"""


def sighting(instant, person, location, rel_id):
    return event(
        instant,
        [(person, ["Person"], {"id": person}),
         (100 + location, ["Location"], {"id": location})],
        [(1000 + rel_id, person, "SEEN", 100 + location, {})],
    )


def crime(instant, crime_id, location, rel_id):
    return event(
        instant,
        [(200 + crime_id, ["Crime"], {"id": crime_id}),
         (100 + location, ["Location"], {"id": location})],
        [(2000 + rel_id, 200 + crime_id, "AT", 100 + location, {})],
    )


class TestMultipleStreams:
    def test_from_stream_parses_and_renders(self):
        query = parse_seraph(MULTI_STREAM_QUERY)
        assert query.stream_names() == ("sightings", "crimes")
        assert parse_seraph(query.render()) == query

    def test_matches_join_across_streams(self):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(MULTI_STREAM_QUERY, sink=sink)
        emissions = engine.run_streams(
            {
                "sightings": [
                    sighting(hhmm("10:02"), 1, 7, 1),
                    sighting(hhmm("10:12"), 2, 8, 2),
                ],
                "crimes": [crime(hhmm("10:08"), 1, 7, 1)],
            },
            until=hhmm("10:30"),
        )
        found = {
            (record["person"], record["crime"])
            for emission in emissions
            for record in emission.table
        }
        assert found == {(1, 1)}  # person 2 was at a different location

    def test_each_stream_windowed_independently(self):
        """The sightings window (1h) forgets before the crimes window (2h)."""
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(MULTI_STREAM_QUERY, sink=sink)
        engine.run_streams(
            {
                "sightings": [sighting(hhmm("10:02"), 1, 7, 1)],
                "crimes": [crime(hhmm("11:30"), 1, 7, 1)],
            },
            until=hhmm("12:30"),
        )
        # At 11:30 the sighting (10:02) already left the 1h window.
        assert sink.non_empty() == []

    def test_engine_matches_denotation_multi_stream(self):
        sightings = [
            sighting(hhmm("10:02"), 1, 7, 1),
            sighting(hhmm("10:22"), 3, 7, 2),
        ]
        crimes = [crime(hhmm("10:08"), 1, 7, 1)]
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(MULTI_STREAM_QUERY, sink=sink)
        engine.run_streams(
            {"sightings": sightings, "crimes": crimes}, until=hhmm("11:00")
        )
        reference = continuous_run(
            parse_seraph(MULTI_STREAM_QUERY),
            {
                "sightings": PropertyGraphStream(sightings),
                "crimes": PropertyGraphStream(crimes),
            },
            hhmm("11:00"),
        )
        assert len(sink.emissions) == len(reference)
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected)

    def test_unknown_stream_is_just_empty(self):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(MULTI_STREAM_QUERY, sink=sink)
        engine.run_streams(
            {"sightings": [sighting(hhmm("10:02"), 1, 7, 1)]},
            until=hhmm("10:10"),
        )
        assert sink.non_empty() == []


class TestStaticGraphIntegration:
    """Future work iii: static data participates in every snapshot."""

    STATIC_QUERY = """
    REGISTER QUERY vip_rentals STARTING AT 2022-08-01T14:45
    {
      MATCH (b:Bike)-[r:rentedAt]->(s:Station)-[:IN_ZONE]->(z:Zone)
      WITHIN PT1H
      EMIT r.user_id AS user_id, z.name AS zone
      ON ENTERING EVERY PT5M
    }
    """

    @staticmethod
    def zones_graph():
        builder = GraphBuilder()
        zone = builder.add_node(["Zone"], {"name": "campus"}, node_id=900)
        # Stations 1 and 2 are campus stations; 3 and 4 are not.
        for station in (1, 2):
            builder.add_node(["Station"], {"id": station}, node_id=station)
            builder.add_relationship(station, "IN_ZONE", zone,
                                     rel_id=9000 + station)
        return builder.build()

    def test_static_data_joins_with_stream(self, rental_stream):
        engine = SeraphEngine(static_graph=self.zones_graph())
        sink = CollectingSink()
        engine.register(self.STATIC_QUERY, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        rows = {
            (record["user_id"], record["zone"])
            for emission in sink.emissions
            for record in emission.table
        }
        # Rentals at stations 1 (user 1234) and 2 (users 1234, 5678).
        assert rows == {(1234, "campus"), (5678, "campus")}

    def test_engine_matches_denotation_with_static_graph(self, rental_stream):
        static = self.zones_graph()
        engine = SeraphEngine(static_graph=static)
        sink = CollectingSink()
        engine.register(self.STATIC_QUERY, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        reference = continuous_run(
            parse_seraph(self.STATIC_QUERY),
            PropertyGraphStream(rental_stream),
            _t("15:40"),
            static_graph=static,
        )
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected)

    @pytest.mark.parametrize("reference", [False, True])
    def test_both_maintenance_modes_support_static(self, rental_stream,
                                                   reference):
        engine = SeraphEngine(static_graph=self.zones_graph(),
                              reference=reference)
        sink = CollectingSink()
        engine.register(self.STATIC_QUERY, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink.non_empty()) > 0


class TestReuseUnchangedWindows:
    def test_reuse_counts_skipped_evaluations(self, rental_stream):
        engine = SeraphEngine()
        registered = engine.register(LISTING5_SERAPH)
        engine.run_stream(rental_stream, until=_t("15:40"))
        # Events arrive at 5 of the 12 ET instants; evaluations between
        # arrivals see identical window content and are reused.
        assert registered.counters["evaluations"].value == 12
        assert registered.counters["path.reuse"].value >= 5

    def test_reuse_produces_identical_emissions(self, rental_stream):
        with_reuse = SeraphEngine()
        without = SeraphEngine(reference=True)
        sink_a = CollectingSink()
        sink_b = CollectingSink()
        with_reuse.register(LISTING5_SERAPH, sink=sink_a)
        without.register(LISTING5_SERAPH, sink=sink_b)
        with_reuse.run_stream(rental_stream, until=_t("15:40"))
        without.run_stream(figure1_stream(), until=_t("15:40"))
        assert len(sink_a.emissions) == len(sink_b.emissions)
        for left, right in zip(sink_a.emissions, sink_b.emissions):
            assert left.table.bag_equals(right.table)

    def test_queries_referencing_bounds_never_reused(self, rental_stream):
        query = """
        REGISTER QUERY bounds STARTING AT 2022-08-01T14:45
        {
          MATCH (b:Bike) WITHIN PT1H
          EMIT count(*) AS bikes, win_end - win_start AS width
          SNAPSHOT EVERY PT5M
        }
        """
        engine = SeraphEngine()
        registered = engine.register(query)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert registered.uses_window_bounds
        assert registered.counters["path.reuse"].value == 0

    def test_reuse_is_keyed_on_content_not_on_the_element_range(self):
        """Listing 2 over overlapping configuration graphs, one event per
        evaluation: the element range moves on every tick, the snapshot
        only when a link fails or recovers.  Exactly the ticks whose
        literal snapshot equals the previous tick's are reused."""
        stream = NetworkStreamGenerator(
            NetworkConfig(racks=8, routers=4, events=120, seed=13)
        ).stream()
        text = anomalous_routes_query()
        query = parse_seraph(text)
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(query, sink=sink)
        bounds = SeraphEngine()
        bounds.register(text.replace("rack_id, hops", "rack_id, win_start"))
        for element in stream:
            for driven in (engine, bounds):
                driven.ingest_element(element)
                driven.advance_to(element.instant)
        recorded = PropertyGraphStream(stream)
        window = window_config(query, query.max_within)
        snapshots = [
            snapshot_graph(window.active_substream(
                recorded, emission.instant, engine.policy))
            for emission in sink.emissions
        ]
        unchanged = sum(
            before == after for before, after in zip(snapshots, snapshots[1:])
        )
        assert 0 < unchanged < len(snapshots) - 1
        assert engine.status()["queries"][query.name]["reused"] == unchanged
        reference = continuous_run(query, recorded, stream[-1].instant)
        assert len(sink.emissions) == len(reference)
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected), emission.instant
        assert bounds.status()["queries"][query.name]["reused"] == 0

    def test_window_slide_still_changes_content(self):
        """Reuse must not fire when eviction changed the content even
        though no new event arrived."""
        query = """
        REGISTER QUERY short STARTING AT 2022-08-01T10:05
        { MATCH (n) WITHIN PT5M EMIT count(*) AS n SNAPSHOT EVERY PT5M }
        """
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(query, sink=sink)
        engine.run_stream(
            [event(hhmm("10:05"), [(1, ["X"], {})])], until=hhmm("10:15")
        )
        counts = [emission.table.table.records[0]["n"]
                  for emission in sink.emissions]
        assert counts == [1, 0, 0]


class TestGraphToGraph:
    TEMPLATE = GraphTemplate(
        nodes=(
            NodeSpec(key="user_id", labels=("Suspect",),
                     properties=("user_id",)),
            NodeSpec(key="station_id", labels=("Station",),
                     properties=("station_id",), id_offset=10_000),
        ),
        relationships=(
            RelationshipSpec(
                src_key="user_id", trg_key="station_id",
                rel_type="FLAGGED_AT", properties=("val_time",),
                trg_offset=10_000,
            ),
        ),
    )

    def test_emissions_become_graph_stream(self, rental_stream):
        engine = SeraphEngine()
        sink = ConstructingSink(self.TEMPLATE)
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink.elements) == 2  # 15:15 and 15:40 emissions
        first = sink.elements[0]
        assert first.instant == _t("15:15")
        suspects = list(first.graph.nodes_with_labels(["Suspect"]))
        assert [node.property("user_id") for node in suspects] == [1234]
        assert first.graph.size == 1

    def test_output_stream_feeds_downstream_query(self, rental_stream):
        """Close the graph-to-graph loop: query the constructed stream."""
        upstream = SeraphEngine()
        sink = ConstructingSink(self.TEMPLATE)
        upstream.register(LISTING5_SERAPH, sink=sink)
        upstream.run_stream(rental_stream, until=_t("15:40"))

        downstream = SeraphEngine()
        downstream_sink = CollectingSink()
        downstream.register(
            """
            REGISTER QUERY flag_counts STARTING AT 2022-08-01T15:40
            {
              MATCH (p:Suspect)-[:FLAGGED_AT]->(s:Station) WITHIN PT2H
              EMIT count(*) AS flags
              SNAPSHOT EVERY PT5M
            }
            """,
            sink=downstream_sink,
        )
        downstream.run_stream(sink.elements, until=_t("15:40"))
        assert downstream_sink.emissions[-1].table.table.records[0]["flags"] == 2

    def test_relationship_spec_requires_produced_nodes(self):
        from repro.errors import SeraphSemanticError
        from repro.seraph.sinks import Emission
        from repro.graph.table import Record, Table
        from repro.stream.timeline import TimeInterval
        from repro.stream.tvt import TimeAnnotatedTable
        import itertools

        bad = GraphTemplate(
            nodes=(NodeSpec(key="a"),),
            relationships=(
                RelationshipSpec(src_key="a", trg_key="missing",
                                 rel_type="R"),
            ),
        )
        emission = Emission(
            query_name="x",
            instant=0,
            table=TimeAnnotatedTable(
                table=Table([Record({"a": 1, "missing": 2})]),
                interval=TimeInterval(0, 10),
            ),
        )
        with pytest.raises(SeraphSemanticError):
            bad.build(emission, itertools.count(1))


class TestExplain:
    def test_explain_listing5(self):
        text = explain(LISTING5_SERAPH)
        assert "ContinuousQuery student_trick" in text
        assert "every PT5M" in text
        assert "ON ENTERING" in text
        assert "width PT1H" in text
        assert "unchanged-window reuse applies" in text

    def test_explain_marks_bound_references(self):
        text = explain("""
        REGISTER QUERY b STARTING AT 2022-08-01T10:00
        { MATCH (n) WITHIN PT1H EMIT win_start AS s SNAPSHOT EVERY PT5M }
        """)
        assert "reuse optimization off" in text

    def test_explain_one_shot(self):
        text = explain("""
        REGISTER QUERY once STARTING AT 2022-08-01T10:00
        { MATCH (n) WITHIN PT1H RETURN count(*) AS n }
        """)
        assert "one-shot" in text

    def test_explain_multi_stream(self):
        text = explain(MULTI_STREAM_QUERY)
        assert "stream 'sightings'" in text and "stream 'crimes'" in text
