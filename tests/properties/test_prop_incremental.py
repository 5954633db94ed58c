"""Property: incremental equals from-scratch at every instant.

The production engine — net-change window maintenance, the snapshot
graph patched in place, unchanged-window reuse, compiled plans — must
bag-equal the denotational :func:`continuous_run` per emission on random
streams and random window configurations, and so must the reference
twin that re-unions and re-evaluates everything.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.parser import parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream

from ..modes import MODES, assert_equals_denotation, run_mode

# Single-MATCH shapes: fixed and bounded variable-length paths with and
# without WHERE, aggregation, shortestPath, and a win-bounds reference
# (which turns reuse off).
QUERY_TEMPLATES = [
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r:SENT]->(b) WITHIN {width}
          EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[:KNOWS]->(b)-[r]->(c) WITHIN {width}
          WHERE id(a) <> id(c)
          EMIT id(a) AS a, id(c) AS c ON ENTERING EVERY {slide} }}""",
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[*1..2]->(c) WITHIN {width}
          EMIT id(a) AS a, count(*) AS walks SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r:SENT]->(b) WITHIN {width}
          WHERE r.weight > 30
          EMIT id(r) AS r ON ENTERING EVERY {slide} }}""",
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH p = shortestPath((a)-[*..3]->(b)) WITHIN {width}
          WHERE id(a) <> id(b)
          EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r]->(b) WITHIN {width}
          EMIT id(r) AS r, win_end - win_start AS span
          SNAPSHOT EVERY {slide} }}""",
]

DURATIONS = {60: "PT1M", 120: "PT2M", 300: "PT5M", 600: "PT10M"}


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    events = draw(st.integers(min_value=2, max_value=12))
    elements = random_stream(
        random.Random(seed),
        num_events=events,
        period=draw(st.sampled_from([30, 60, 90])),
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=draw(st.sampled_from([0, 5])),
    )
    template = draw(st.sampled_from(QUERY_TEMPLATES))
    # 60/60 and 120/120 are tumbling windows: everything expires as the
    # next batch arrives, so only the arrivals-before-expiries order
    # keeps entities both batches mention from reading as changed.
    width = draw(st.sampled_from([60, 120, 300, 600]))
    slide = draw(st.sampled_from([60, 120]))
    text = template.format(width=DURATIONS[width], slide=DURATIONS[slide])
    return elements, parse_seraph(text)


class TestNetChangeAcrossModes:
    @given(data=scenario(), mode=st.sampled_from(sorted(MODES)),
           static=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_every_mode_matches_continuous_run(self, data, mode, static):
        """Per instant against the denotation, under every execution
        mode; the static graph (the first element's, so the stream keeps
        re-asserting permanent contributions) never expires."""
        elements, query = data
        static_graph = elements[0].graph if static else None
        until = elements[-1].instant
        sink = run_mode(mode, query.render(), elements, until,
                        static_graph=static_graph)
        assert_equals_denotation(sink, query.render(), elements, until,
                                 static_graph=static_graph)


class TestProductionEqualsDenotational:
    @given(data=scenario())
    @settings(max_examples=60, deadline=None)
    def test_production_matches_continuous_run(self, data):
        elements, query = data
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(query, sink=sink)
        engine.run_stream(elements)
        until = elements[-1].instant
        reference = continuous_run(
            query, PropertyGraphStream(elements), until
        )
        assert len(sink.emissions) == len(reference)
        for emission, annotated in zip(sink.emissions, reference):
            assert emission.table.interval == annotated.interval
            assert emission.table.table.bag_equals(annotated.table)

    @given(data=scenario())
    @settings(max_examples=30, deadline=None)
    def test_production_and_reference_agree(self, data):
        elements, query = data
        results = []
        for reference in (False, True):
            engine = SeraphEngine(reference=reference)
            sink = CollectingSink()
            engine.register(query, sink=sink)
            engine.run_stream(elements)
            results.append(sink.emissions)
        production, reference = results
        assert len(production) == len(reference)
        for left, right in zip(production, reference):
            assert left.table.bag_equals(right.table)
