"""Net-change window maintenance on the one match path.

The window maintainer (:class:`~repro.stream.snapshot.SnapshotMaintainer`)
records which ids changed *net* — a count bump on a description some
other live element also carries changes nothing — and patches the one
live snapshot graph in place; an evaluation whose window content did not
change reuses the previous table, every other one runs the compiled
plan.  Streams here are built so that most of what enters or leaves a
window is such a count bump.  Every run must equal, instant by instant,
both the denotational run (``semantics.continuous_run``) and the
brute-force oracle (:mod:`tests.oracle`), in production and in the
reference twin.
"""

import pytest

from repro import EngineConfig, build_engine
from repro.errors import GraphUnionError
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.seraph import CollectingSink, SeraphEngine
from repro.stream.stream import StreamElement

from ..modes import (
    MODES,
    STACKS,
    assert_equals_denotation,
    assert_equals_oracle,
    run_mode,
)


def knows_element(index, instant=None):
    left = Node(id=2 * index, labels=("Person",), properties=())
    right = Node(id=2 * index + 1, labels=("Person",), properties=())
    rel = Relationship(
        id=index, type="KNOWS", src=left.id, trg=right.id, properties=()
    )
    return StreamElement(
        graph=PropertyGraph.of([left, right], [rel]),
        instant=instant if instant is not None else index + 1,
    )


def overlapping_stream(count):
    """Element i carries KNOWS pair i, repeats pair i-1 verbatim and links
    the two (a chain): most of what enters or leaves the window is a
    count bump on a description some other element still carries."""
    elements = []
    for index in range(1, count + 1):
        nodes, rels = {}, []
        for pair in (index - 1, index):
            if pair < 1:
                continue
            graph = knows_element(pair).graph
            nodes.update(graph.nodes)
            rels.extend(graph.relationships.values())
        if index > 1:
            rels.append(Relationship(
                id=500 + index, type="KNOWS", src=2 * index - 1,
                trg=2 * index, properties=(),
            ))
        elements.append(StreamElement(
            graph=PropertyGraph.of(nodes.values(), rels), instant=index,
        ))
    return elements


def doubled_tick_stream(count):
    """Two elements per instant: the overlapping stream's element, then a
    repeat of the element before it.  The repeat changes nothing net
    when it arrives, nor when it leaves the window."""
    chain = overlapping_stream(count)
    elements = [chain[0]]
    for previous, current in zip(chain, chain[1:]):
        elements.append(current)
        elements.append(StreamElement(graph=previous.graph,
                                      instant=current.instant))
    return elements


def static_graph():
    """Background pairs, one of them (pair 3) also streamed: stream
    contributions land on permanent ones, and a permanent link ties the
    streamed chain to the background."""
    graphs = [knows_element(pair).graph for pair in (3, 40, 41)]
    nodes, rels = {}, []
    for graph in graphs:
        nodes.update(graph.nodes)
        rels.extend(graph.relationships.values())
    rels.append(Relationship(id=900, type="KNOWS", src=81, trg=6,
                             properties=()))
    return PropertyGraph.of(nodes.values(), rels)


TEMPLATE = """
REGISTER QUERY q STARTING AT 1970-01-01T00:00:00
{{
  MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
  WITHIN {width}
  EMIT id(a) AS a, id(c) AS c {policy} EVERY {slide}
}}
"""
#: name → (width, slide, report policy, with a static graph, stream)
SCENARIOS = {
    "sliding": ("PT16S", "PT2S", "SNAPSHOT", False, overlapping_stream),
    "entering": ("PT12S", "PT1S", "ON ENTERING", False, overlapping_stream),
    "exiting": ("PT6S", "PT1S", "ON EXITING", False, overlapping_stream),
    "tumbling": ("PT4S", "PT4S", "SNAPSHOT", False, overlapping_stream),
    "static": ("PT16S", "PT2S", "SNAPSHOT", True, overlapping_stream),
    "doubled-tick": ("PT6S", "PT1S", "SNAPSHOT", False, doubled_tick_stream),
}
UNTIL = 30


def scenario_run(mode, scenario):
    width, slide, policy, static, stream = SCENARIOS[scenario]
    text = TEMPLATE.format(width=width, slide=slide, policy=policy)
    background = static_graph() if static else None
    elements = stream(24)
    sink = run_mode(mode, text, elements, UNTIL, static_graph=background)
    assert any(not emission.is_empty() for emission in sink.emissions)
    return sink, text, elements, background


class TestNetChangeAcrossModes:
    """Per instant against the denotation and the oracle, in production
    and in the reference twin."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_equals_the_denotation(self, mode, scenario):
        sink, text, elements, background = scenario_run(mode, scenario)
        assert_equals_denotation(sink, text, elements, UNTIL,
                                 static_graph=background)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_equals_the_brute_force_oracle(self, mode, scenario):
        sink, text, elements, background = scenario_run(mode, scenario)
        assert_equals_oracle(sink, text, elements, UNTIL,
                             static_graph=background)


class TestOneMatchPath:
    QUERY = TEMPLATE.format(width="PT10S", slide="PT2S", policy="SNAPSHOT")

    def test_every_production_evaluation_is_reuse_or_full(self):
        """A single fixed-length MATCH with no window-bound reference:
        each evaluation either reuses the previous table or runs the
        compiled plan, and no other path is counted."""
        engine = SeraphEngine()
        registered = engine.register(self.QUERY)
        engine.run_stream(doubled_tick_stream(24), until=UNTIL)
        counters = registered.counters
        evaluations = counters["evaluations"].value
        assert counters["path.full"].value > 0
        assert counters["path.reuse"].value + counters["path.full"].value \
            == evaluations
        assert set(counters) == {"evaluations", "path.reuse", "path.full",
                                 "plan_compiles"}

    def test_the_benchmark_status_keys_read_zero(self):
        """``delta``, ``delta_full_refreshes`` and ``assignments_*`` stay
        in ``status()`` as integer zeros: the end-to-end benchmark reads
        them, and nothing counts them any more."""
        engine = SeraphEngine()
        engine.register(self.QUERY, sink=CollectingSink())
        engine.run_stream(overlapping_stream(24), until=UNTIL)
        status = engine.status()["queries"]["q"]
        for key in ("delta", "delta_full_refreshes",
                    "assignments_retained", "assignments_recomputed"):
            assert type(status[key]) is int and status[key] == 0, key
        assert "delta_reason" not in status
        assert status["evaluations"] > 0


def conflicting_stream():
    """Node 1 is ``{v: 1}`` in every element until instant 6 describes it
    as ``{v: 2}`` while the earlier descriptions are still in the
    window: the snapshot at 6 has no union (UNA)."""
    elements = []
    for instant in range(1, 8):
        value = 2 if instant == 6 else 1
        hub = Node(id=1, labels=("Person",), properties=(("v", value),))
        leaf = Node(id=100 + instant, labels=("Person",), properties=())
        rel = Relationship(id=instant, type="KNOWS", src=1, trg=leaf.id,
                           properties=())
        elements.append(StreamElement(
            graph=PropertyGraph.of([hub, leaf], [rel]), instant=instant,
        ))
    return elements


CONFLICT_QUERY = """
REGISTER QUERY hub STARTING AT 1970-01-01T00:00:01
{
  MATCH (a:Person)-[:KNOWS]->(b:Person) WITHIN PT10S
  EMIT a.v AS v, id(b) AS b SNAPSHOT EVERY PT1S
}
"""


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_conflicting_description_fails_at_the_same_instant(mode, stack):
    """The same emissions before the conflict, then a
    :class:`GraphUnionError` from the same ``advance_to`` — whichever
    behaviour and stack, and whether the snapshot is patched in place or
    re-unioned."""
    engine = build_engine(EngineConfig(**MODES[mode], **STACKS[stack]))
    sink = CollectingSink()
    engine.register(CONFLICT_QUERY, sink=sink)
    failed_at = None
    for element in conflicting_stream():
        engine.ingest_element(element)
        try:
            engine.advance_to(element.instant)
        except GraphUnionError as exc:
            assert "conflicting values for property 'v'" in str(exc)
            failed_at = element.instant
            break
    assert failed_at == 6
    assert [emission.instant for emission in sink.emissions] \
        == [1, 2, 3, 4, 5]
    assert [
        sorted((record["v"], record["b"]) for record in emission.table)
        for emission in sink.emissions
    ] == [
        [(1, 100 + leaf) for leaf in range(1, instant + 1)]
        for instant in range(1, 6)
    ]
