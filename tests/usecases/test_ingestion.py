"""Tests for the Listing 4 MERGE ingestion pipeline."""

import pytest

from repro.errors import StreamError
from repro.seraph import CollectingSink, SeraphEngine
from repro.usecases.ingestion import (
    IngestionPipeline,
    RentalMessage,
    replay_running_example,
    running_example_messages,
)
from repro.usecases.micromobility import (
    LISTING5_SERAPH,
    TABLE5_EXPECTED,
    TABLE6_EXPECTED,
    _t,
    figure1_stream,
)


@pytest.fixture(scope="module")
def replayed():
    return replay_running_example()


class TestPipelineStore:
    def test_merged_store_matches_figure2_shape(self, replayed):
        pipeline, _ = replayed
        graph = pipeline.store.graph()
        assert graph.order == 8 and graph.size == 8
        stations = list(graph.nodes_with_labels(["Station"]))
        bikes = list(graph.nodes_with_labels(["Bike"]))
        assert len(stations) == 4 and len(bikes) == 4

    def test_merge_deduplicates_entities(self, replayed):
        pipeline, _ = replayed
        graph = pipeline.store.graph()
        station_ids = [
            node.property("id")
            for node in graph.nodes_with_labels(["Station"])
        ]
        assert sorted(station_ids) == [1, 2, 3, 4]

    def test_ebike_hierarchy_labels_applied(self, replayed):
        pipeline, _ = replayed
        graph = pipeline.store.graph()
        ebikes = list(graph.nodes_with_labels(["EBike"]))
        assert sorted(node.property("id") for node in ebikes) == [5, 7]


class TestSealedStream:
    def test_arrivals_match_figure1(self, replayed):
        _, elements = replayed
        assert [element.instant for element in elements] == [
            element.instant for element in figure1_stream()
        ]

    def test_delta_sizes_match_figure1(self, replayed):
        _, elements = replayed
        assert [element.graph.size for element in elements] == [
            element.graph.size for element in figure1_stream()
        ]

    def test_deltas_union_to_store(self, replayed):
        from repro.graph.union import union_all

        pipeline, elements = replayed
        assert union_all(
            element.graph for element in elements
        ) == pipeline.store.graph()


class TestEndToEndDetection:
    def test_ingested_stream_reproduces_tables_5_and_6(self, replayed):
        _, elements = replayed
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(LISTING5_SERAPH, sink=sink)
        engine.run_stream(elements, until=_t("15:40"))
        at_1515 = {
            (record["user_id"], record["station_id"], record["val_time"])
            for record in sink.at(_t("15:15")).table
        }
        assert at_1515 == {
            (row["user_id"], row["station_id"], row["val_time"])
            for row in TABLE5_EXPECTED
        }
        at_1540 = {
            (record["user_id"], record["station_id"], record["val_time"])
            for record in sink.at(_t("15:40")).table
        }
        assert at_1540 == {
            (row["user_id"], row["station_id"], row["val_time"])
            for row in TABLE6_EXPECTED
        }


class TestPipelineMechanics:
    def test_rejects_bad_period(self):
        with pytest.raises(StreamError):
            IngestionPipeline(period=0, start=0)

    def test_rejects_messages_before_start(self):
        pipeline = IngestionPipeline(period=300, start=1000)
        with pytest.raises(StreamError):
            pipeline.feed(RentalMessage("rental", 1, 1, 1, 500))

    def test_incremental_sealing(self):
        messages = running_example_messages()
        pipeline = IngestionPipeline(period=300, start=_t("14:40"))
        for message in messages:
            pipeline.feed(message)
        first = pipeline.seal_until(_t("15:00"))
        second = pipeline.seal_until(_t("15:40"))
        assert [element.instant for element in first + second] == [
            element.instant for element in figure1_stream()
        ]

    def test_every_message_becomes_one_relationship(self):
        """A longer generated feed: the store and the sealed deltas each
        hold exactly one relationship per message."""
        import random

        rng = random.Random(3)
        start = _t("08:00")
        pipeline = IngestionPipeline(period=300, start=start)
        for index in range(50):
            kind = "rental" if rng.random() < 0.5 else "return"
            pipeline.feed(RentalMessage(
                kind, rng.randint(1, 40), rng.randint(1, 15),
                rng.randint(1, 60), start + index * 60,
                duration=rng.randint(5, 40) if kind == "return" else None,
            ))
        elements = pipeline.seal_until(start + 50 * 60 + 300)
        assert pipeline.store.graph().size == 50
        assert sum(element.graph.size for element in elements) == 50

    def test_empty_periods_produce_no_elements(self):
        pipeline = IngestionPipeline(period=300, start=_t("14:40"))
        pipeline.feed(RentalMessage("rental", 5, 1, 1234, _t("14:41")))
        elements = pipeline.seal_until(_t("15:40"))
        assert len(elements) == 1
        assert elements[0].instant == _t("14:45")


class TestMessageValidation:
    """The typed ingestion contract (IngestionError, never raw
    KeyError/TypeError) introduced with the resilience layer."""

    def test_unknown_kind_raises_typed_error(self):
        from repro.errors import IngestionError
        from repro.usecases.ingestion import validate_message

        with pytest.raises(IngestionError, match="unknown message kind"):
            validate_message(
                RentalMessage("refund", 5, 1, 1234, _t("14:41"))
            )

    def test_unknown_kind_no_longer_silently_treated_as_return(self):
        """The seed bug: any kind != 'rental' ran the RETURN statement."""
        from repro.errors import IngestionError

        pipeline = IngestionPipeline(period=300, start=_t("14:40"))
        pipeline.feed(
            RentalMessage("bogus", 5, 1, 1234, _t("14:41"), duration=5)
        )
        with pytest.raises(IngestionError):
            pipeline.seal_until(_t("14:50"))

    def test_return_without_duration_rejected(self):
        from repro.errors import IngestionError
        from repro.usecases.ingestion import validate_message

        with pytest.raises(IngestionError, match="duration"):
            validate_message(
                RentalMessage("return", 5, 1, 1234, _t("14:41"))
            )

    def test_non_integer_fields_rejected(self):
        from repro.errors import IngestionError
        from repro.usecases.ingestion import validate_message

        with pytest.raises(IngestionError, match="vehicle"):
            validate_message(
                RentalMessage("rental", "five", 1, 1234, _t("14:41"))
            )
        with pytest.raises(IngestionError, match="time"):
            validate_message(
                RentalMessage("rental", 5, 1, 1234, "noon")
            )

    def test_errors_are_typed_not_raw(self):
        """The failure surfaces as a ReproError subclass, so dead-letter
        policies can catch library errors exactly."""
        from repro.errors import IngestionError, ReproError

        pipeline = IngestionPipeline(period=300, start=_t("14:40"))
        pipeline.feed(RentalMessage("bogus", 5, 1, 1234, _t("14:41")))
        try:
            pipeline.seal_until(_t("14:50"))
        except ReproError as exc:
            assert isinstance(exc, IngestionError)
        else:
            raise AssertionError("expected IngestionError")

    def test_valid_messages_still_pass(self):
        from repro.usecases.ingestion import validate_message

        for message in running_example_messages():
            validate_message(message)  # must not raise
