"""Checkpoint/restore: a restored engine continues the run unchanged."""

import json

import pytest

from repro import EngineConfig, build_engine
from repro.errors import CheckpointError, EngineModeError
from repro.graph.builder import GraphBuilder
from repro.graph.model import Node, Path, Relationship
from repro.graph.table import Record, Table
from repro.runtime.checkpoint import (
    decode_value,
    encode_value,
    engine_from_dict,
    engine_from_json,
    engine_to_dict,
    load_checkpoint,
    save_checkpoint,
    table_from_dict,
    table_to_dict,
)
from repro.seraph import CollectingSink, SeraphEngine
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import (
    LISTING5_SERAPH,
    _t,
    figure1_stream,
    figure2_graph,
)

from ..modes import (
    MODE_SELECTIONS,
    MODES,
    assert_names_the_offending_fields,
    expected_mode,
    selection_id,
)

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals SNAPSHOT EVERY PT5M
}
"""

ENTERING_QUERY = """
REGISTER QUERY arrivals STARTING AT 2022-08-01T14:45
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT1H
  EMIT b.id AS bike ON ENTERING EVERY PT5M
}
"""


def emission_key(emission):
    rows = sorted(
        tuple(sorted((name, repr(value)) for name, value in record.items()))
        for record in emission.table
    )
    return (emission.query_name, emission.instant, rows)


def run_split(query_texts, split, until):
    """Run the figure-1 stream interrupted at ``split``: checkpoint, restore
    into a fresh engine, finish there.  Returns all emissions in order."""
    stream = figure1_stream()
    engine = SeraphEngine()
    sinks = {}
    for text in query_texts:
        registered = engine.register(text)
        sinks[registered.name] = registered.sink
    emissions = []
    for element in stream[:split]:
        emissions.extend(engine.advance_to(element.instant - 1))
        engine.ingest_element(element)

    document = json.loads(json.dumps(engine_to_dict(engine)))  # wire trip
    fresh_sinks = {name: CollectingSink() for name in sinks}
    restored = engine_from_dict(document, sinks=fresh_sinks)

    for element in stream[split:]:
        emissions.extend(restored.advance_to(element.instant - 1))
        restored.ingest_element(element)
    emissions.extend(restored.advance_to(until))
    return emissions


def run_uninterrupted(query_texts, until):
    engine = SeraphEngine()
    for text in query_texts:
        engine.register(text)
    return engine.run_stream(figure1_stream(), until=until)


class TestValueCodec:
    def test_plain_values_round_trip(self):
        for value in [None, True, 0, 1.5, "text", [1, "a", None]]:
            assert decode_value(
                json.loads(json.dumps(encode_value(value)))
            ) == (list(value) if isinstance(value, tuple) else value)

    def test_graph_entities_round_trip(self):
        node = Node(id=1, labels=frozenset(["A"]), properties={"k": 7})
        rel = Relationship(id=2, type="T", src=1, trg=1,
                           properties={"w": 1})
        path = Path(nodes=(node, node), relationships=(rel,))
        for value in [node, rel, path, {"nested": node}, [node, rel]]:
            decoded = decode_value(
                json.loads(json.dumps(encode_value(value)))
            )
            if isinstance(value, list):
                assert decoded == value
            else:
                assert decoded == value

    def test_unknown_type_raises(self):
        with pytest.raises(CheckpointError):
            encode_value(object())

    def test_table_round_trip(self):
        table = Table(
            [Record({"a": 1, "b": "x"}), Record({"a": 2, "b": None})],
            fields=["a", "b"],
        )
        restored = table_from_dict(
            json.loads(json.dumps(table_to_dict(table)))
        )
        assert restored.bag_equals(table)
        assert restored.fields == table.fields


class TestMidStreamEquivalence:
    UNTIL = None

    @pytest.mark.parametrize("split", [0, 1, 2, 3, 4, 5])
    def test_snapshot_query_split_anywhere(self, split):
        until = _t("15:40")
        baseline = run_uninterrupted([COUNT_QUERY], until)
        resumed = run_split([COUNT_QUERY], split, until)
        assert [emission_key(e) for e in resumed] == [
            emission_key(e) for e in baseline
        ]

    @pytest.mark.parametrize("split", [1, 3])
    def test_on_entering_report_state_survives(self, split):
        """ON ENTERING needs the previous evaluation's table across the
        restore — the checkpoint carries the report state."""
        until = _t("15:40")
        baseline = run_uninterrupted([ENTERING_QUERY], until)
        resumed = run_split([ENTERING_QUERY], split, until)
        assert [emission_key(e) for e in resumed] == [
            emission_key(e) for e in baseline
        ]

    @pytest.mark.parametrize("split", [2, 4])
    def test_multiple_queries_resume_together(self, split):
        until = _t("15:40")
        baseline = run_uninterrupted(
            [COUNT_QUERY, LISTING5_SERAPH], until
        )
        resumed = run_split([COUNT_QUERY, LISTING5_SERAPH], split, until)
        assert sorted(map(emission_key, resumed)) == sorted(
            map(emission_key, baseline)
        )

    def test_checkpoint_after_eviction_still_resumes(self):
        """Eviction bookkeeping (base_seq) survives the round trip."""
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        stream = figure1_stream()
        emissions = []
        for element in stream[:4]:
            emissions.extend(engine.advance_to(element.instant - 1))
            engine.ingest_element(element)
        emissions.extend(engine.advance_to(_t("15:20")))
        state = engine._streams["default"]
        assert state.base_seq >= 0  # eviction may or may not have fired
        restored = engine_from_dict(engine_to_dict(engine))
        restored_state = restored._streams["default"]
        assert restored_state.base_seq == state.base_seq
        assert len(restored_state.elements) == len(state.elements)


#: The ``config`` mode keys of version-2 documents written before the
#: six names were read by one normaliser, for the two engines that can
#: still be built (the writer still emits exactly these).
PRODUCTION_DOCUMENT_MODES = {
    "incremental": True, "reuse_unchanged_windows": True,
    "delta_eval": True, "physical_plans": True,
    "graph_backend": "reference", "vectorized": False,
}
REFERENCE_DOCUMENT_MODES = {
    "incremental": False, "reuse_unchanged_windows": False,
    "delta_eval": False, "physical_plans": False,
    "graph_backend": "reference", "vectorized": False,
}


class TestConfigRoundTrip:
    def test_static_graph_and_flags_survive(self):
        engine = SeraphEngine(static_graph=figure2_graph(), reference=True)
        engine.register(COUNT_QUERY)
        restored = engine_from_json(
            json.dumps(engine_to_dict(engine))
        )
        assert restored.reference is True
        assert restored.static_graph == engine.static_graph

    @pytest.mark.parametrize("resilient", [False, True])
    @pytest.mark.parametrize("observability", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_field_round_trips(self, mode, observability,
                                          resilient):
        """A restored slow twin used to come back compiled
        (``physical_plans`` was never written) and a restored resilient
        stack untraced."""
        engine = build_engine(EngineConfig(
            resilient=resilient, observability=observability,
            **MODES[mode],
        ))
        document = engine_to_dict(engine)
        expected = (REFERENCE_DOCUMENT_MODES if engine.reference
                    else PRODUCTION_DOCUMENT_MODES)
        assert {name: document["config"][name] for name in expected} \
            == expected
        restored = engine_from_dict(document)
        assert restored.reference is engine.reference
        assert restored.obs.enabled is observability
        assert (restored.ingress is not None) is resilient

    def test_an_absent_mode_field_restores_its_default(self):
        """Removing a mode field later needs no version bump."""
        document = engine_to_dict(SeraphEngine())
        del document["config"]["physical_plans"]
        del document["config"]["vectorized"]
        assert engine_from_dict(document).reference is False

    @pytest.mark.parametrize("modes", [
        PRODUCTION_DOCUMENT_MODES, REFERENCE_DOCUMENT_MODES,
    ], ids=["production", "reference"])
    @pytest.mark.parametrize("split", [2, 4])
    def test_an_older_document_restores_with_a_bag_equal_tail(
        self, modes, split
    ):
        until = _t("15:40")
        queries = [COUNT_QUERY, LISTING5_SERAPH]
        engine = SeraphEngine()
        for text in queries:
            engine.register(text)
        stream = figure1_stream()
        emissions = []
        for element in stream[:split]:
            emissions.extend(engine.advance_to(element.instant - 1))
            engine.ingest_element(element)
        document = engine_to_dict(engine)
        document["config"].update(modes)
        restored = engine_from_json(json.dumps(document))
        assert restored.reference is (modes is REFERENCE_DOCUMENT_MODES)
        for element in stream[split:]:
            emissions.extend(restored.advance_to(element.instant - 1))
            restored.ingest_element(element)
        emissions.extend(restored.advance_to(until))
        assert sorted(map(emission_key, emissions)) == sorted(
            map(emission_key, run_uninterrupted(queries, until))
        )

    @pytest.mark.parametrize("field,value", [
        ("delta_eval", False), ("graph_backend", "columnar"),
        ("vectorized", True),
    ])
    def test_a_partial_ablation_document_is_a_typed_error(self, field,
                                                          value):
        document = engine_to_dict(SeraphEngine())
        document["config"][field] = value
        with pytest.raises(EngineModeError, match=field):
            engine_from_dict(document)

    @pytest.mark.parametrize("selection", MODE_SELECTIONS, ids=selection_id)
    def test_every_document_mode_selection_restores_or_is_a_typed_error(
        self, selection
    ):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        document = engine_to_dict(engine)
        document["config"].update(selection)
        mode = expected_mode(selection)
        if mode is None:
            with pytest.raises(EngineModeError) as raised:
                engine_from_dict(document)
            assert_names_the_offending_fields(selection, str(raised.value))
        else:
            restored = engine_from_dict(document)
            assert restored.reference is (mode == "reference")
            assert restored.status()["mode"] == mode
            assert list(restored._queries) == list(engine._queries)

    @pytest.mark.parametrize("resilient", [False, True])
    @pytest.mark.parametrize("workers", [None, 0, 2])
    def test_a_pool_size_of_older_documents_restores_serial(
        self, workers, resilient
    ):
        """Documents written while the engine had a process pool carry
        ``config.parallel_workers`` (null for a serial engine).  The key
        is ignored: the engine restores serial and its tail is
        bag-equal to the uninterrupted run."""
        until = _t("15:40")
        queries = [COUNT_QUERY, LISTING5_SERAPH]
        engine = build_engine(EngineConfig(resilient=resilient))
        for text in queries:
            engine.register(text)
        stream = figure1_stream()
        emissions = engine.run_stream(stream[:3], until=stream[2].instant)
        document = engine_to_dict(engine)
        assert "parallel_workers" not in document["config"]
        document["config"]["parallel_workers"] = workers
        restored = engine_from_json(json.dumps(document))
        assert not hasattr(restored, "executor")
        assert "parallel" not in restored.status()
        emissions += restored.run_stream(stream[3:], until=until)
        assert sorted(map(emission_key, emissions)) == sorted(
            map(emission_key, run_uninterrupted(queries, until))
        )

    def test_share_windows_key_of_older_documents_is_ignored(self):
        """Documents written while ``share_windows`` was a knob still
        load; the key is dropped and new documents no longer carry it."""
        document = engine_to_dict(SeraphEngine())
        assert "share_windows" not in document["config"]
        document["config"]["share_windows"] = False
        restored = engine_from_dict(document)
        assert not hasattr(restored, "share_windows")

    def test_progress_counters_survive(self):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        engine.run_stream(figure1_stream()[:3])
        registered = engine.registered("rentals")
        restored = engine_from_dict(engine_to_dict(engine))
        restored_query = restored.registered("rentals")
        assert restored_query.next_eval == registered.next_eval
        assert restored.status()["queries"]["rentals"]["evaluations"] \
            == engine.status()["queries"]["rentals"]["evaluations"] > 0
        assert restored_query.done == registered.done


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        engine = SeraphEngine()
        engine.register(COUNT_QUERY)
        engine.run_stream(figure1_stream()[:2])
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(engine, path)
        restored = load_checkpoint(path)
        assert restored.registered("rentals").next_eval == \
            engine.registered("rentals").next_eval


class TestMalformedDocuments:
    def test_bad_json_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError):
            engine_from_json("{not json")

    def test_wrong_version_raises(self):
        engine = SeraphEngine()
        document = engine_to_dict(engine)
        document["version"] = 999
        with pytest.raises(CheckpointError):
            engine_from_dict(document)

    def test_version_1_documents_are_rejected(self):
        document = engine_to_dict(SeraphEngine())
        document["version"] = 1
        with pytest.raises(CheckpointError, match="version 1"):
            engine_from_dict(document)

    def test_missing_keys_raise(self):
        with pytest.raises(CheckpointError):
            engine_from_dict({"version": 2})

    def test_ingress_tuning_needs_an_ingress(self):
        document = engine_to_dict(SeraphEngine())
        with pytest.raises(CheckpointError, match="no ingress"):
            engine_from_dict(document, allowed_lateness=5)
