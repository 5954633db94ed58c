"""Executable checks for the paper's design requirements R1–R4."""

import pytest

from repro.cypher import parse_cypher, run_cypher
from repro.seraph import CollectingSink, SeraphEngine, parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream


class TestR1DeclarativeSemantics:
    """R1: the query's meaning is independent of the execution strategy —
    every engine configuration produces the denotational result."""

    @pytest.mark.parametrize("reference", [False, True])
    def test_engine_configurations_agree_with_denotation(
        self, rental_stream, reference
    ):
        engine = SeraphEngine(reference=reference)
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        reference = continuous_run(
            parse_seraph(LISTING5_SERAPH),
            PropertyGraphStream(rental_stream),
            _t("15:40"),
        )
        assert [emission.table.table for emission in sink.emissions] == [
            entry.table for entry in reference
        ]

    def test_no_imperative_driver_needed(self, rental_stream):
        """The whole continuous behaviour is declared in the query text;
        the driver only feeds events (contrast Section 3.3's workaround,
        which must re-issue the query and manage windows in app code)."""
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)  # declaration only
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink.non_empty()) == 2


class TestR2ContinuousEvaluation:
    """R2: STARTING AT + WITHIN + EVERY fully determine when and over
    what the query is evaluated."""

    def test_starting_at_controls_first_evaluation(self, rental_stream):
        late = LISTING5_SERAPH.replace("14:45h", "15:30h")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(late, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert [emission.instant for emission in sink.emissions] == [
            _t("15:30"), _t("15:35"), _t("15:40"),
        ]

    def test_every_controls_evaluation_period(self, rental_stream):
        fast = LISTING5_SERAPH.replace("EVERY PT5M", "EVERY PT10M")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(fast, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        assert len(sink.emissions) == 6  # 14:45, 14:55, ..., 15:35 + 15:45? no: ≤15:40 → 6

    def test_within_controls_scope(self, rental_stream):
        narrow = LISTING5_SERAPH.replace("WITHIN PT1H", "WITHIN PT10M")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(narrow, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        # A 10-minute window never holds the whole fraud chain.
        assert sink.non_empty() == []


class TestR3ResultEmitting:
    """R3: EMIT + ON ENTERING/SNAPSHOT control what is reported when."""

    def test_on_entering_emits_each_result_once(self, rental_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        users = [
            record["user_id"]
            for emission in sink.emissions
            for record in emission.table
        ]
        assert users == [1234, 5678]  # no repetitions across evaluations

    def test_snapshot_emits_everything_every_time(self, rental_stream):
        text = LISTING5_SERAPH.replace("ON ENTERING", "SNAPSHOT")
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(text, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        # User 1234's match is present at 15:15 .. 15:40 → 6 repetitions.
        users = [
            record["user_id"]
            for emission in sink.emissions
            for record in emission.table
        ]
        assert users.count(1234) == 6

    def test_emit_projection_controls_fields(self, rental_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        fields = sink.at(_t("15:15")).table.table.fields
        assert fields == frozenset({"user_id", "station_id", "val_time", "hops"})


class TestR4PreservingExpressiveness:
    """R4: every core-Cypher query runs unchanged inside a Seraph body
    and produces the one-time result over the snapshot graph."""

    CYPHER_QUERIES = [
        "MATCH (s:Station) RETURN count(*) AS n",
        "MATCH (b:Bike)-[r:rentedAt]->(s:Station) "
        "RETURN s.id AS sid, count(*) AS rentals ORDER BY sid",
        "MATCH p = (b:Bike)-[*2..3]-(o) RETURN count(p) AS paths",
        "UNWIND [1,2,3] AS x WITH x WHERE x > 1 RETURN collect(x) AS xs",
        "MATCH (a:Station) OPTIONAL MATCH (a)<-[r:returnedAt]-(b) "
        "RETURN a.id AS sid, count(r) AS returns ORDER BY sid",
    ]

    @pytest.mark.parametrize("cypher_text", CYPHER_QUERIES)
    def test_embedding_preserves_one_time_semantics(
        self, rental_stream, merged_rental_graph, cypher_text
    ):
        from repro.graph.temporal import HOUR, MINUTE
        from repro.seraph.ast import SeraphQuery

        # Lift the one-time query into Seraph with a window wide enough to
        # hold the whole Figure 1 stream at the 15:40 evaluation.
        lifted = SeraphQuery.lift_cypher(
            name="embedded",
            starting_at=_t("15:40"),
            query=parse_cypher(cypher_text).parts[0],
            within=2 * HOUR,
            every=5 * MINUTE,
        )
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(lifted, sink=sink)
        engine.run_stream(rental_stream, until=_t("15:40"))
        continuous = sink.at(_t("15:40")).table.table
        one_time = run_cypher(cypher_text, merged_rental_graph)
        assert continuous.bag_equals(one_time)

    def test_lift_requires_return_terminal(self):
        from repro.seraph.ast import SeraphQuery

        with pytest.raises(ValueError):
            SeraphQuery.lift_cypher(
                name="bad",
                starting_at=0,
                query=parse_cypher("MATCH (n) RETURN n").parts[0].__class__(
                    clauses=parse_cypher("MATCH (n) RETURN n").parts[0]
                    .clauses[:-1]
                ),
                within=10,
                every=10,
            )
