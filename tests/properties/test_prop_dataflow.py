"""Property-based determinism of dataflow chaining (``EMIT ... INTO``).

The tentpole contract (docs/DATAFLOW.md): a detect → enrich pipeline
fused into ONE engine emits, at every stage, exactly what the
hand-composed two-engine run emits — the upstream engine's emissions
materialized by a standalone :class:`StreamMaterializer` and fed to a
second engine in lockstep.  Across random streams and window shapes the
equality must hold for production and for the reference twin.

Rendered-text equality is asserted, which implies order- and
bag-equality of the emissions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.seraph import CollectingSink, SeraphEngine, StreamMaterializer

DETECT_TEMPLATE = """
REGISTER QUERY detect STARTING AT 1970-01-01T00:01
{{
  MATCH (a)-[r:SENT]->(b) WITHIN {width}
  EMIT id(a) AS src, id(b) AS dst {policy} EVERY {slide}
  INTO pairs
}}
"""

ENRICH_TEMPLATE = """
REGISTER QUERY enrich STARTING AT 1970-01-01T00:01
{{
  MATCH (p:pairs) FROM STREAM pairs WITHIN {width}
  EMIT p.src AS src, count(*) AS hits SNAPSHOT EVERY {slide}
}}
"""

DURATIONS = {60: "PT1M", 120: "PT2M", 180: "PT3M", 300: "PT5M"}


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    elements = random_stream(
        random.Random(seed),
        num_events=draw(st.integers(min_value=2, max_value=8)),
        period=draw(st.sampled_from([30, 60])),
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=draw(st.sampled_from([0, 5])),
    )
    detect = DETECT_TEMPLATE.format(
        width=DURATIONS[draw(st.sampled_from([120, 300]))],
        slide=DURATIONS[draw(st.sampled_from([60, 120]))],
        policy=draw(st.sampled_from(["SNAPSHOT", "ON ENTERING"])),
    )
    enrich = ENRICH_TEMPLATE.format(
        width=DURATIONS[draw(st.sampled_from([120, 180, 300]))],
        slide=DURATIONS[draw(st.sampled_from([60, 120]))],
    )
    reference = draw(st.booleans())
    return elements, detect, enrich, reference


def _rendered(sink):
    return [emission.render() for emission in sink.emissions]


def _run_hand_composed(elements, detect, enrich, reference):
    """The glued composition: two serial engines joined by a
    materializer, advanced in lockstep (the delivery schedule the fused
    staged scheduler guarantees).  The mode is applied to both
    compositions — production and the reference twin order rows
    differently, and the property under test is fused-vs-glued."""
    upstream = SeraphEngine(reference=reference)
    downstream = SeraphEngine(reference=reference)
    detect_sink, enrich_sink = CollectingSink(), CollectingSink()
    upstream.register(detect.replace("\n  INTO pairs", ""), sink=detect_sink)
    downstream.register(enrich, sink=enrich_sink)
    materializer = StreamMaterializer("pairs")
    shipped = 0

    def advance(until):
        nonlocal shipped
        upstream.advance_to(until)
        for emission in detect_sink.emissions[shipped:]:
            shipped += 1
            element = materializer.materialize(emission)
            if element is not None:
                downstream.ingest_element(element, "pairs")
        downstream.advance_to(until)

    for element in elements:
        advance(element.instant - 1)
        upstream.ingest_element(element)
    advance(elements[-1].instant)
    return [_rendered(detect_sink), _rendered(enrich_sink)]


@given(data=scenario())
@settings(max_examples=30, deadline=None)
def test_fused_pipeline_equals_hand_composed(data):
    elements, detect, enrich, reference = data
    glued = _run_hand_composed(elements, detect, enrich, reference)
    engine = SeraphEngine(reference=reference)
    detect_sink, enrich_sink = CollectingSink(), CollectingSink()
    engine.register(detect, sink=detect_sink)
    engine.register(enrich, sink=enrich_sink)
    engine.run_stream(elements)
    fused = [_rendered(detect_sink), _rendered(enrich_sink)]
    assert fused == glued
