"""Property-based equivalence of the compiled physical pipeline.

Two contracts, across random streams, random query sets, and random
window configurations:

* the production engine (hoisted plans) is **bag-equal per emission**
  to the reference twin (un-hoisted plans) — band-quantized
  compile-time planning may pick a different join order than the
  per-evaluation planner, so row order inside a table can differ, never
  the bag;
* in either mode, the engine with an ingress stays **byte-identical**
  to the plain run in that mode — compiled plans run behind the reorder
  buffer without changing a single rendered emission.

The query pool deliberately includes a property-map anchor
(``{weight: 42}``) so IndexSeek runs against randomly generated data
(random_stream assigns ``weight`` in 0..100), alongside label scans,
aggregation, var-length expansion, and shortestPath.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.runtime import Ingress
from repro.seraph import CollectingSink, SeraphEngine

QUERY_TEMPLATES = [
    # IndexSeek anchor: equality property map on a generated property.
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a:Person {{weight: 42}})-[r]->(b) WITHIN {width}
          EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r:SENT]->(b) WITHIN {width}
          EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[:KNOWS]->(b)-[r]->(c) WITHIN {width}
          WHERE id(a) <> id(c)
          EMIT id(a) AS a, count(*) AS paths SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[*1..2]->(c) WITHIN {width}
          EMIT id(a) AS a, count(*) AS walks SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH p = shortestPath((a)-[*..3]->(b)) WITHIN {width}
          WHERE id(a) <> id(b)
          EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY {slide} }}""",
]

DURATIONS = {60: "PT1M", 120: "PT2M", 300: "PT5M", 600: "PT10M"}


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    events = draw(st.integers(min_value=2, max_value=10))
    elements = random_stream(
        random.Random(seed),
        num_events=events,
        period=draw(st.sampled_from([30, 60, 90])),
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=draw(st.sampled_from([0, 5])),
    )
    count = draw(st.integers(min_value=1, max_value=3))
    indices = draw(
        st.lists(
            st.integers(0, len(QUERY_TEMPLATES) - 1),
            min_size=count, max_size=count,
        )
    )
    texts = []
    for position, template_index in enumerate(indices):
        width = draw(st.sampled_from([120, 300, 600]))
        slide = draw(st.sampled_from([60, 120]))
        texts.append(
            QUERY_TEMPLATES[template_index].format(
                name=f"q{position}",
                width=DURATIONS[width],
                slide=DURATIONS[slide],
            )
        )
    reference = draw(st.booleans())
    return elements, texts, reference


def _run(engine, elements, texts):
    sinks = [CollectingSink() for _ in texts]
    for text, sink in zip(texts, sinks):
        engine.register(text, sink=sink)
    engine.run_stream(elements)
    return sinks


class TestPhysicalEqualsInterpreted:
    @given(data=scenario())
    @settings(max_examples=40, deadline=None)
    def test_bag_equal_per_emission(self, data):
        elements, texts, _reference = data
        on_engine = SeraphEngine()
        on = _run(on_engine, elements, texts)
        off = _run(SeraphEngine(reference=True), elements, texts)
        for sink_on, sink_off in zip(on, off):
            assert len(sink_on.emissions) == len(sink_off.emissions)
            for left, right in zip(sink_on.emissions, sink_off.emissions):
                assert left.instant == right.instant
                assert left.table.bag_equals(right.table)
        # Every coverable Seraph query compiles: if anything was
        # evaluated, the cache saw at least one compile.
        if any(sink.emissions for sink in on):
            assert on_engine.plan_cache.stats()["misses"] >= 1


class TestPhysicalMatrix:
    @given(data=scenario())
    @settings(max_examples=25, deadline=None)
    def test_resilient_matrix(self, data):
        elements, texts, reference = data
        serial = _run(
            SeraphEngine(reference=reference), elements, texts
        )
        engine = SeraphEngine(
            ingress=Ingress(),
            reference=reference,
        )
        for text in texts:
            engine.register(text)
        engine.run_stream(elements)
        resilient = [
            e.render()
            for index in range(len(texts))
            for e in engine.sink(f"q{index}").emissions
        ]
        assert resilient \
            == [e.render() for sink in serial for e in sink.emissions]
