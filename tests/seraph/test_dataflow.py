"""Dataflow chaining: ``EMIT ... INTO`` named derived streams.

The contract under test (docs/DATAFLOW.md): registered queries form a
DAG over derived streams; a fused pipeline in one engine emits the same
bytes as the hand-composed multi-engine run; cycles are rejected with
the path named; deregistration cascades derived-stream state; the
pipeline survives a checkpoint→restore cut mid-run.
"""

import random

import pytest

from repro.errors import DataflowCycleError, UnknownStreamError
from repro.graph.generators import random_stream
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.runtime.checkpoint import engine_from_dict, engine_to_dict
from repro.seraph import (
    DERIVED_NODE_ID_BASE,
    CollectingSink,
    DataflowGraph,
    SeraphEngine,
    StreamMaterializer,
    explain,
    explain_dataflow,
    parse_seraph,
)
from repro.seraph.validation import validate

DETECT = """
REGISTER QUERY detect STARTING AT 1970-01-01T00:01
{
  MATCH (a)-[r:SENT]->(b) WITHIN PT2M
  EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY PT1M
  INTO pairs
}
"""

ENRICH = """
REGISTER QUERY enrich STARTING AT 1970-01-01T00:01
{
  MATCH (p:pairs) FROM STREAM pairs WITHIN PT3M
  EMIT p.src AS src, count(*) AS hits SNAPSHOT EVERY PT1M
}
"""

ENRICH_INTO = ENRICH.replace("EVERY PT1M", "EVERY PT1M INTO hot")

ALERT = """
REGISTER QUERY alert STARTING AT 1970-01-01T00:01
{
  MATCH (h:hot) FROM STREAM hot WITHIN PT2M
  WHERE h.hits >= 1
  EMIT h.src AS src, max(h.hits) AS hits SNAPSHOT EVERY PT1M
}
"""


def _stream(seed=7, events=8):
    return random_stream(
        random.Random(seed),
        num_events=events,
        period=60,
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=5,
    )


def _rendered(sink):
    return [emission.render() for emission in sink.emissions]


# -- grammar -------------------------------------------------------------------


def test_into_round_trips_through_the_parser():
    query = parse_seraph(DETECT)
    assert query.emits_into == "pairs"
    rendered = query.render()
    assert "INTO pairs" in rendered
    assert parse_seraph(rendered).render() == rendered


def test_queries_without_into_are_unchanged():
    query = parse_seraph(ENRICH)
    assert query.emits_into is None
    assert "INTO" not in query.render()


def test_self_loop_is_a_typed_error_naming_the_loop():
    text = DETECT.replace(
        "MATCH (a)-[r:SENT]->(b)",
        "MATCH (a:pairs) FROM STREAM pairs",
    )
    with pytest.raises(DataflowCycleError) as excinfo:
        validate(text)
    assert "consumes the stream it emits into" in str(excinfo.value)
    assert "detect -[pairs]-> detect" in str(excinfo.value)


def test_engine_rejects_cycles_naming_the_path():
    engine = SeraphEngine()
    engine.register(DETECT)
    closing = """
    REGISTER QUERY backfill STARTING AT 1970-01-01T00:01
    {
      MATCH (p:pairs) FROM STREAM pairs WITHIN PT2M
      EMIT p.src AS src SNAPSHOT EVERY PT1M
      INTO raw
    }
    """
    engine.register(closing.replace("INTO raw", "INTO loop"))
    close = """
    REGISTER QUERY close STARTING AT 1970-01-01T00:01
    {
      MATCH (l:loop) FROM STREAM loop WITHIN PT2M
      EMIT l.src AS src SNAPSHOT EVERY PT1M
      INTO pairs
    }
    """
    with pytest.raises(DataflowCycleError) as excinfo:
        engine.register(close)
    message = str(excinfo.value)
    assert "close" in message and "-[pairs]->" in message \
        and "-[loop]->" in message
    # Atomic: the rejected query left no trace.
    assert "close" not in engine.query_names
    assert "close" not in engine.dataflow_status()["stages"]


# -- dependency graph ----------------------------------------------------------


def test_dataflow_graph_stages_and_edges():
    graph = DataflowGraph()
    graph.add("detect", consumes=("default",), produces="pairs")
    graph.add("enrich", consumes=("pairs",), produces="hot")
    graph.add("alert", consumes=("hot",))
    assert graph.stage_of("detect") == 0
    assert graph.stage_of("enrich") == 1
    assert graph.stage_of("alert") == 2
    assert graph.topological_names() == ["detect", "enrich", "alert"]
    assert graph.edges() == [
        ("detect", "pairs", "enrich"),
        ("enrich", "hot", "alert"),
    ]
    assert graph.produced_streams() == ["pairs", "hot"]
    assert not graph.is_trivial


def test_dataflow_graph_rejects_cycles_atomically():
    graph = DataflowGraph()
    graph.add("a", consumes=("default",), produces="s1")
    graph.add("b", consumes=("s1",), produces="s2")
    with pytest.raises(DataflowCycleError) as excinfo:
        graph.add("c", consumes=("s2",), produces="s0")
        graph.replace("a", consumes=("s0",), produces="s1")
    path = str(excinfo.value)
    assert "-[s1]->" in path and "-[s0]->" in path
    # The failed replace left 'a' with its original edges.
    assert graph.stage_of("a") == 0
    graph.remove("b")
    assert "b" not in graph
    assert graph.edges() == []


def test_external_streams_are_not_an_error():
    graph = DataflowGraph()
    graph.add("q", consumes=("nobody_produces_this",))
    assert graph.is_trivial
    assert graph.producers_of("nobody_produces_this") == []


# -- fused pipeline == hand-composed engines -----------------------------------


def run_fused(elements):
    engine = SeraphEngine()
    sinks = {"detect": CollectingSink(), "enrich": CollectingSink()}
    engine.register(DETECT, sink=sinks["detect"])
    engine.register(ENRICH, sink=sinks["enrich"])
    engine.run_stream(elements)
    return {name: _rendered(sink) for name, sink in sinks.items()}, engine


def run_hand_composed(elements):
    """Two engines glued by a materializer, advanced in lockstep so the
    downstream engine sees each derived element exactly when the fused
    staged scheduler would deliver it."""
    upstream, downstream = SeraphEngine(), SeraphEngine()
    sinks = {"detect": CollectingSink(), "enrich": CollectingSink()}
    upstream.register(DETECT.replace("\n  INTO pairs", ""),
                      sink=sinks["detect"])
    downstream.register(ENRICH, sink=sinks["enrich"])
    materializer = StreamMaterializer("pairs")
    shipped = 0

    def advance(until):
        nonlocal shipped
        upstream.advance_to(until)
        for emission in sinks["detect"].emissions[shipped:]:
            shipped += 1
            element = materializer.materialize(emission)
            if element is not None:
                downstream.ingest_element(element, "pairs")
        downstream.advance_to(until)

    for element in elements:
        advance(element.instant - 1)
        upstream.ingest_element(element)
    advance(elements[-1].instant)
    return {name: _rendered(sink) for name, sink in sinks.items()}


def test_fused_pipeline_byte_identical_to_hand_composed():
    elements = _stream()
    fused, engine = run_fused(elements)
    glued = run_hand_composed(elements)
    assert fused == glued
    assert any(fused["enrich"])  # the pipeline actually produced rows
    status = engine.dataflow_status()
    assert status["stages"] == {"detect": 0, "enrich": 1}


def test_replay_is_deterministic():
    elements = _stream(seed=13)
    first, _ = run_fused(elements)
    second, _ = run_fused(elements)
    assert first == second


def test_three_stage_pipeline_matches_glue():
    elements = _stream(seed=21, events=10)
    engine = SeraphEngine()
    sinks = [CollectingSink() for _ in range(3)]
    engine.register(DETECT, sink=sinks[0])
    engine.register(ENRICH_INTO, sink=sinks[1])
    engine.register(ALERT, sink=sinks[2])
    engine.run_stream(elements)
    assert engine.dataflow_status()["stages"] == {
        "detect": 0, "enrich": 1, "alert": 2,
    }
    assert any(not emission.is_empty() for emission in sinks[2].emissions)


# -- counters and status -------------------------------------------------------


def test_dataflow_status_counters():
    elements = _stream()
    _, engine = run_fused(elements)
    status = engine.dataflow_status()
    pairs = status["streams"]["pairs"]
    assert pairs["producers"] == ["detect"]
    assert pairs["consumers"] == ["enrich"]
    assert pairs["cursor"] > 0
    assert pairs["rows"] >= pairs["cursor"]
    assert status["order"] == ["detect", "enrich"]
    (edge,) = status["edges"]
    assert edge["producer"] == "detect"
    assert edge["consumer"] == "enrich"
    assert edge["stream"] == "pairs"
    assert edge["emitted"] == pairs["cursor"]
    # Lockstep delivery: everything emitted was consumed downstream.
    assert edge["consumed"] == edge["emitted"]


def test_derived_stream_lookup_raises_typed_unknown_stream():
    engine = SeraphEngine()
    engine.register(DETECT)
    assert engine.derived_streams() == ["pairs"]
    assert engine.derived_stream("pairs")["producers"] == ["detect"]
    with pytest.raises(UnknownStreamError):
        engine.derived_stream("nope")


# -- cascading deregistration --------------------------------------------------


def test_deregistering_the_producer_cascades_derived_state():
    elements = _stream()
    _, engine = run_fused(elements)
    assert "pairs" in engine._materializers
    engine.deregister("detect")
    # Producer gone: the materializer is dropped, but the stream state
    # survives while 'enrich' still consumes it.
    assert "pairs" not in engine._materializers
    assert "pairs" in engine._streams
    engine.deregister("enrich")
    assert "pairs" not in engine._streams
    assert engine.dataflow_status()["streams"] == {}


# -- checkpoint / restore ------------------------------------------------------


@pytest.mark.parametrize("cut", [3, 5])
def test_checkpoint_restore_mid_pipeline(cut):
    elements = _stream(seed=5, events=9)
    full, _ = run_fused(elements)

    engine = SeraphEngine()
    sinks = {"detect": CollectingSink(), "enrich": CollectingSink()}
    engine.register(DETECT, sink=sinks["detect"])
    engine.register(ENRICH, sink=sinks["enrich"])
    engine.run_stream(elements[:cut], until=elements[cut].instant - 1)
    head = {name: _rendered(sink) for name, sink in sinks.items()}

    document = engine_to_dict(engine)
    assert "pairs" in document["dataflow"]
    fresh = {"detect": CollectingSink(), "enrich": CollectingSink()}
    restored = engine_from_dict(document, sinks=fresh)
    restored.run_stream(elements[cut:])
    tail = {name: _rendered(sink) for name, sink in fresh.items()}

    def bag(rendered):
        # The restore contract is bag-equality per emission: the restored
        # window graph may enumerate matches in a different row order.
        return [tuple(sorted(text.splitlines())) for text in rendered]

    for name in full:
        assert bag(head[name] + tail[name]) == bag(full[name])


def _element_dicts(materializer, emissions):
    return [
        None if element is None else graph_to_dict(element.graph)
        for element in map(materializer.materialize, emissions)
    ]


def test_materializer_checkpoint_round_trip():
    elements = _stream()
    engine = SeraphEngine()
    sink = CollectingSink()
    engine.register(DETECT, sink=sink)
    engine.run_stream(elements[:5])
    materializer = engine._materializers["pairs"]
    clone = StreamMaterializer.from_dict(materializer.to_dict())
    assert clone.stream == "pairs"
    assert clone.elements == materializer.elements
    assert clone.rows == materializer.rows
    assert clone.to_dict() == materializer.to_dict()
    # The clone continues exactly as the original: the same rows merge
    # onto the same nodes and new rows get the same fresh ids.
    later = SeraphEngine()
    tail = CollectingSink()
    later.register(DETECT.replace("\n  INTO pairs", ""), sink=tail)
    later.run_stream(elements)
    assert _element_dicts(clone, tail.emissions) == \
        _element_dicts(materializer, tail.emissions)
    assert clone.to_dict() == materializer.to_dict()
    assert materializer.next_node_id > DERIVED_NODE_ID_BASE


# -- materializer semantics ----------------------------------------------------


def test_materializer_merges_repeated_rows_into_one_node():
    elements = _stream()
    engine = SeraphEngine()
    sink = CollectingSink()
    engine.register(DETECT, sink=sink)
    engine.run_stream(elements)
    materializer = engine._materializers["pairs"]
    document = materializer.to_dict()
    derived = graph_from_dict(document["graph"])
    rows = {
        tuple(sorted(dict(node.properties).items()))
        for node in derived.nodes.values()
    }
    # MERGE semantics: one node per distinct (src, dst) row, each above
    # the derived-id base so ids never collide with raw-stream nodes.
    assert len(rows) == len(derived.nodes)
    assert all(node_id >= DERIVED_NODE_ID_BASE for node_id in derived.nodes)
    assert materializer.elements == \
        sum(1 for emission in sink.emissions if not emission.is_empty())
    # Every emitted row already has its node: replaying the emissions
    # maps each row back onto it and creates nothing.
    for emission in sink.emissions:
        element = materializer.materialize(emission)
        if element is not None:
            assert set(element.graph.nodes) <= set(derived.nodes)
    assert materializer.to_dict()["graph"] == document["graph"]
    assert materializer.next_node_id == document["next_node_id"]


def test_empty_emissions_materialize_nothing():
    materializer = StreamMaterializer("pairs")
    engine = SeraphEngine()
    sink = CollectingSink()
    engine.register(DETECT.replace("r:SENT", "r:NO_SUCH_TYPE"), sink=sink)
    engine.run_stream(_stream())
    assert all(emission.is_empty() for emission in sink.emissions)
    for emission in sink.emissions:
        assert materializer.materialize(emission) is None
    assert materializer.elements == 0


# -- explain -------------------------------------------------------------------


def test_explain_shows_the_into_clause():
    assert "emits into  : stream 'pairs'" in explain(parse_seraph(DETECT))


def test_explain_dataflow_renders_the_dag():
    elements = _stream()
    _, engine = run_fused(elements)
    text = explain_dataflow(engine)
    assert "DataflowDAG" in text
    assert "stage 0:" in text and "stage 1:" in text
    assert "-> INTO pairs" in text
    assert "detect -[pairs]-> enrich" in text


def test_explain_dataflow_on_an_empty_engine():
    assert "(no registered queries)" in explain_dataflow(SeraphEngine())
