"""Property-based tests for the core theorem-like properties:

* snapshot reducibility (Definition 5.8) over random streams and a family
  of continuous queries, under both active-substream policies;
* engine ≡ denotational semantics over random streams.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import run_cypher
from repro.graph.generators import random_stream
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.parser import parse_seraph
from repro.seraph.semantics import (
    continuous_run,
    evaluate_at,
    evaluation_instants,
    window_config,
)
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream
from repro.stream.window import ActiveSubstreamPolicy

QUERY_TEMPLATES = [
    # Aggregation over relationships.
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH ()-[r]->() WITHIN {width}
          EMIT count(r) AS n SNAPSHOT EVERY {slide} }}""",
    # Grouped aggregation with ON ENTERING.
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r:SENT]->(b) WITHIN {width}
          EMIT id(a) AS src, count(*) AS sent ON ENTERING EVERY {slide} }}""",
    # Two-hop structural pattern.
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) WITHIN {width}
          WHERE id(a) <> id(c)
          EMIT id(a) AS a, id(c) AS c ON ENTERING EVERY {slide} }}""",
    # Var-length with path projection.
    """REGISTER QUERY q STARTING AT 1970-01-01T00:00
       {{ MATCH p = (a)-[*2..2]->(c) WITHIN {width}
          EMIT id(a) AS a, [n IN nodes(p) | id(n)] AS trail
          SNAPSHOT EVERY {slide} }}""",
]

DURATIONS = {60: "PT1M", 120: "PT2M", 300: "PT5M", 600: "PT10M"}


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    events = draw(st.integers(min_value=2, max_value=10))
    elements = random_stream(
        random.Random(seed),
        num_events=events,
        period=60,
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=5,
    )
    template = draw(st.sampled_from(QUERY_TEMPLATES))
    width = draw(st.sampled_from([120, 300, 600]))
    slide = draw(st.sampled_from([60, 120]))
    text = template.format(width=DURATIONS[width], slide=DURATIONS[slide])
    return elements, parse_seraph(text)


class TestSnapshotReducibility:
    @given(data=scenario(),
           policy=st.sampled_from(list(ActiveSubstreamPolicy)))
    @settings(max_examples=40, deadline=None)
    def test_cq_equals_q_over_snapshot(self, data, policy):
        elements, query = data
        stream = PropertyGraphStream(elements)
        counterpart = query.cypher_counterpart().render()
        config = window_config(query, query.max_within)
        until = elements[-1].instant
        for instant in evaluation_instants(query, until):
            continuous = evaluate_at(query, stream, instant, policy)
            one_time = run_cypher(
                counterpart,
                snapshot_graph(
                    config.active_substream(stream, instant, policy)
                ),
                base_scope={
                    "win_start": continuous.win_start,
                    "win_end": continuous.win_end,
                },
            )
            assert continuous.table.bag_equals(one_time)


class TestEngineEqualsDenotation:
    @given(data=scenario(),
           reference=st.booleans(),
           policy=st.sampled_from(list(ActiveSubstreamPolicy)))
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_reference(self, data, reference, policy):
        """Production (incremental snapshots, reuse, delta path) and the
        reference twin both equal the denotation."""
        elements, query = data
        until = elements[-1].instant
        engine = SeraphEngine(policy=policy, reference=reference)
        sink = CollectingSink()
        engine.register(query, sink=sink)
        engine.run_stream(elements, until=until)
        denotation = continuous_run(
            query, PropertyGraphStream(elements), until, policy
        )
        assert len(sink.emissions) == len(denotation)
        for emission, expected in zip(sink.emissions, denotation):
            assert emission.table.bag_equals(expected)


MULTI_STREAM_TEMPLATE = """REGISTER QUERY m STARTING AT 1970-01-01T00:00
{{ MATCH (a)-[r:SENT]->(b) FROM STREAM left WITHIN {width}
   OPTIONAL MATCH (a2)-[k:KNOWS]->(b2) FROM STREAM right WITHIN {width2}
   EMIT id(a) AS src, count(k) AS peers SNAPSHOT EVERY {slide} }}"""


class TestMultiStreamEngineEqualsDenotation:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        width=st.sampled_from([120, 300]),
        width2=st.sampled_from([120, 600]),
        slide=st.sampled_from([60, 120]),
    )
    @settings(max_examples=25, deadline=None)
    def test_two_streams(self, seed, width, width2, slide):
        rng = random.Random(seed)
        left = random_stream(rng, num_events=6, period=60, start=0,
                             shared_node_pool=5, types=("SENT",))
        right = random_stream(rng, num_events=5, period=90, start=30,
                              shared_node_pool=5, types=("KNOWS",))
        query = parse_seraph(
            MULTI_STREAM_TEMPLATE.format(
                width=DURATIONS[width], width2=DURATIONS[width2],
                slide=DURATIONS[slide],
            )
        )
        until = max(left[-1].instant, right[-1].instant)
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(query, sink=sink)
        engine.run_streams({"left": left, "right": right}, until=until)
        reference = continuous_run(
            query,
            {
                "left": PropertyGraphStream(left),
                "right": PropertyGraphStream(right),
            },
            until,
        )
        assert len(sink.emissions) == len(reference)
        for emission, expected in zip(sink.emissions, reference):
            assert emission.table.bag_equals(expected)
