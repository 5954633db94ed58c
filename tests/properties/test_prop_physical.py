"""Property-based equivalence of the compiled physical pipeline.

Two contracts, across random streams, random query sets, and random
window configurations:

* the production engine (one plan per registration, costed on its
  first full evaluation's snapshots) is **bag-equal per emission** to
  the reference twin (``execute_body``, planned per snapshot) — the
  compiled plan may walk a different join order than the per-snapshot
  planner, so row order inside a table can differ, never the bag;
* in either mode, the engine with an ingress stays **byte-identical**
  to the plain run in that mode — compiled plans run behind the reorder
  buffer without changing a single rendered emission.

The query pool deliberately includes a property-map anchor
(``{weight: w}``, a label scan that checks the map on every candidate)
whose literal is drawn from the weights of the generated ``Person``
nodes, so its tables are not empty by construction (random_stream
assigns ``weight`` in 0..100), alongside label scans, aggregation,
var-length expansion, and shortestPath.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.runtime import Ingress
from repro.seraph import CollectingSink, SeraphEngine

QUERY_TEMPLATES = [
    # Property-map anchor: a label scan filtered on a generated property.
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a:Person {{weight: {weight}}})-[r]->(b) WITHIN {width}
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


def person_weights(elements):
    """The ``weight`` values on the stream's ``Person`` nodes, sorted
    (``[42]`` when there are none)."""
    return sorted({
        node.properties["weight"]
        for element in elements
        for node in element.graph.nodes.values()
        if "Person" in node.labels
    }) or [42]


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
    weight = draw(st.sampled_from(person_weights(elements)))
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
                weight=weight,
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
        # Every coverable Seraph query compiles, once per registration.
        for name in on_engine.query_names:
            registered = on_engine.registered(name)
            compiles = registered.counters["plan_compiles"].value
            assert compiles == (1 if registered.counters["evaluations"].value
                                else 0)


class TestPlannerLaws:
    @given(data=scenario())
    @settings(max_examples=25, deadline=None)
    def test_planner_status_reads_the_query_counters(self, data):
        """``misses`` = Σ compiles and ``hits + misses`` = Σ full
        evaluations in production; the reference twin plans nothing
        ahead and reads all zeros."""
        elements, texts, reference = data
        engine = SeraphEngine(reference=reference)
        _run(engine, elements, texts)
        planner = engine.status()["planner"]
        queries = [engine.registered(name) for name in engine.query_names]
        full = sum(q.counters["path.full"].value for q in queries)
        if reference:
            assert (planner["misses"], planner["hits"], planner["plans"]) \
                == (0, 0, 0)
            return
        assert planner["misses"] == sum(
            q.counters["plan_compiles"].value for q in queries
        ) == len(queries)
        assert planner["hits"] + planner["misses"] == full
        assert planner["invalidations"] == 0


def test_the_property_map_anchor_is_a_label_scan():
    """``{weight: 42}`` compiles to a scan of ``Person`` whose candidates
    the matcher checks against the map; it answers what the reference
    twin does."""
    text = QUERY_TEMPLATES[0].format(name="q0", width="PT5M", slide="PT1M",
                                     weight=42)
    elements = random_stream(
        random.Random(0), num_events=40, period=30, start=0,
        nodes_per_event=3, relationships_per_event=3, shared_node_pool=0,
    )
    engine = SeraphEngine()
    (on,) = _run(engine, elements, [text])
    (off,) = _run(SeraphEngine(reference=True), elements, [text])
    plan = engine.registered("q0").physical_plan
    anchor = plan.operators()[0]
    assert (anchor.kind, anchor.detail) \
        == ("LabelScan", "(a:Person {weight: 42})")
    assert [e.instant for e in on.emissions] \
        == [e.instant for e in off.emissions]
    for left, right in zip(on.emissions, off.emissions):
        assert left.table.bag_equals(right.table)
    assert sum(len(emission.table) for emission in on.emissions) == 10


def test_the_property_map_template_returns_rows_on_most_seeds():
    """With its literal drawn from the generated ``Person`` weights, the
    property-map template matches something on most streams the scenario
    draws, so its bag-equality compares non-empty tables."""
    matched = 0
    for seed in range(10):
        rng = random.Random(seed)
        elements = random_stream(
            rng, num_events=6, period=60, start=0, nodes_per_event=3,
            relationships_per_event=3, shared_node_pool=5 * (seed % 2),
        )
        weight = rng.choice(person_weights(elements))
        text = QUERY_TEMPLATES[0].format(name="q0", width="PT5M",
                                         slide="PT1M", weight=weight)
        (sink,) = _run(SeraphEngine(), elements, [text])
        matched += any(len(emission.table) for emission in sink.emissions)
    assert matched >= 7


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
