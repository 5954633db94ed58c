"""Property: observation never changes what the engine computes.

Across random streams/queries and the mode × resilient composition
matrix, an engine with observability enabled must emit exactly what the
untraced engine emits — and actually record the run (every emission is
covered by an ``evaluate`` root span).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.obs import Observability
from repro.runtime import Ingress
from repro.seraph import CollectingSink, SeraphEngine

# Distinct body shapes; {name} keeps concurrently registered queries
# apart.  The shortestPath and win-bounds shapes are delta-ineligible,
# so random query sets mix the delta and the full path.
QUERY_TEMPLATES = [
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r:SENT]->(b) WITHIN {width}
          EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[:KNOWS]->(b)-[r]->(c) WITHIN {width}
          WHERE id(a) <> id(c)
          EMIT id(a) AS a, id(c) AS c ON ENTERING EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[*1..2]->(c) WITHIN {width}
          EMIT id(a) AS a, count(*) AS walks SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH p = shortestPath((a)-[*..3]->(b)) WITHIN {width}
          WHERE id(a) <> id(b)
          EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY {slide} }}""",
    """REGISTER QUERY {name} STARTING AT 1970-01-01T00:00
       {{ MATCH (a)-[r]->(b) WITHIN {width}
          EMIT id(r) AS r, win_end - win_start AS span
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


def _run_serial(elements, texts, reference):
    engine = SeraphEngine(reference=reference)
    sinks = [CollectingSink() for _ in texts]
    for text, sink in zip(texts, sinks):
        engine.register(text, sink=sink)
    engine.run_stream(elements)
    return [e.render() for sink in sinks for e in sink.emissions]


def _run_traced(elements, texts, engine):
    for text in texts:
        engine.register(text)
    engine.run_stream(elements)
    return [
        e.render()
        for index in range(len(texts))
        for e in engine.sink(f"q{index}").emissions
    ]


@given(data=scenario(), resilient=st.booleans())
@settings(max_examples=25, deadline=None)
def test_traced_stack_is_emission_equal_to_the_untraced_serial_engine(
    data, resilient
):
    elements, texts, reference = data
    baseline = _run_serial(elements, texts, reference)
    engine = SeraphEngine(
        reference=reference,
        obs=Observability.create(),
        ingress=Ingress() if resilient else None,
    )
    assert _run_traced(elements, texts, engine) == baseline
    tracer = engine.obs.tracer
    evaluates = [root for root in tracer.roots if root.name == "evaluate"]
    assert len(evaluates) == len(baseline)
    assert all(span.end is not None for span in evaluates)
    assert engine.obs.registry.counter("engine.evaluations").value \
        == len(baseline)
