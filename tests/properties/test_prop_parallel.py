"""Property-based determinism of the parallel execution layer.

The tentpole contract: parallelism may change wall-clock time, never a
result.  Across random streams, random concurrent query sets, random
window configurations, and random shard counts:

* an engine with a :class:`PoolExecutor` emits **order-equal and bag-equal**
  (we assert rendered-text equality, which implies both) to the serial
  engine — in production and in the reference twin, through the
  parallel × resilient composition matrix;
* :class:`ShardedEngine` is deterministic: the worker path equals the
  inline path, and on classifier-decomposable workloads the merged
  emissions bag-match the single-engine union run.

One module-scoped 2-worker pool is shared by every example, so the
process-spawn cost is paid once.
"""

import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.runtime import Ingress, PoolExecutor, ShardedEngine
from repro.seraph import CollectingSink, SeraphEngine
from repro.stream.stream import StreamElement

# Distinct body shapes; {name} keeps concurrently registered queries
# apart.  The shortestPath and win-bounds shapes are delta-ineligible,
# so random query sets mix offloadable and in-parent evaluations.
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
    # The reference twin has no delta path: every evaluation crosses the
    # pool, delta-eligible shapes included.
    reference = draw(st.booleans())
    return elements, texts, reference


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


def _run_serial(elements, texts, reference):
    engine = SeraphEngine(reference=reference)
    sinks = [CollectingSink() for _ in texts]
    for text, sink in zip(texts, sinks):
        engine.register(text, sink=sink)
    engine.run_stream(elements)
    return [e.render() for sink in sinks for e in sink.emissions]


class TestParallelEqualsSerial:
    @given(data=scenario())
    @settings(max_examples=40, deadline=None)
    def test_forced_offload_order_and_bag_equal(self, data, pool):
        elements, texts, reference = data
        serial = _run_serial(elements, texts, reference)
        engine = SeraphEngine(
            executor=PoolExecutor(2, pool=pool, offload_threshold=0.0),
            reference=reference,
        )
        sinks = [CollectingSink() for _ in texts]
        for text, sink in zip(texts, sinks):
            engine.register(text, sink=sink)
        engine.run_stream(elements)
        parallel = [e.render() for sink in sinks for e in sink.emissions]
        assert parallel == serial

    @given(data=scenario())
    @settings(max_examples=25, deadline=None)
    def test_resilient_parallel_delta_matrix(self, data, pool):
        """The full composition: an engine owning both an ingress and a
        pool executor, production or reference, must replay the serial
        run."""
        elements, texts, reference = data
        serial = _run_serial(elements, texts, reference)
        engine = SeraphEngine(
            ingress=Ingress(),
            executor=PoolExecutor(2, pool=pool, offload_threshold=0.0),
            reference=reference,
        )
        for text in texts:
            engine.register(text)
        engine.run_stream(elements)
        parallel = [
            e.render()
            for index in range(len(texts))
            for e in engine.sink(f"q{index}").emissions
        ]
        assert parallel == serial


# -- sharded determinism -------------------------------------------------------

def _tenant_element(tenant, index, instant, rng):
    base = 10_000 * tenant + 3 * index
    nodes = [
        Node(id=base + offset, labels=("Person",),
             properties=(("weight", rng.randint(0, 100)),))
        for offset in range(3)
    ]
    rels = [
        Relationship(id=2 * (1000 * tenant + index), type="KNOWS",
                     src=base, trg=base + 1, properties=()),
        Relationship(id=2 * (1000 * tenant + index) + 1, type="KNOWS",
                     src=base + 1, trg=base + 2, properties=()),
    ]
    return StreamElement(graph=PropertyGraph.of(nodes, rels), instant=instant)


TENANT_TEMPLATE = """
REGISTER QUERY pairs STARTING AT 1970-01-01T00:00
{{
  MATCH (a:Person)-[:KNOWS]->(b:Person) WITHIN {width}
  EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY {slide}
}}
"""


@st.composite
def tenant_scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    tenants = draw(st.integers(min_value=1, max_value=4))
    events = draw(st.integers(min_value=2, max_value=8))
    elements = [
        _tenant_element(tenant, index, 30 * index + tenant + 1, rng)
        for index in range(events)
        for tenant in range(tenants)
    ]
    text = TENANT_TEMPLATE.format(
        width=DURATIONS[draw(st.sampled_from([60, 120, 300]))],
        slide=DURATIONS[draw(st.sampled_from([60, 120]))],
    )
    shards = draw(st.integers(min_value=1, max_value=3))
    return elements, text, shards


def _classify_tenant(element):
    return f"tenant-{min(element.graph.nodes) // 10_000}"


class TestShardedDeterminism:
    @given(data=tenant_scenario())
    @settings(max_examples=25, deadline=None)
    def test_workers_equals_inline_across_shard_counts(self, data, pool):
        elements, text, shards = data

        def run(workers, injected=None):
            with ShardedEngine(
                queries=[text], classify=_classify_tenant,
                shards=shards, workers=workers, pool=injected,
            ) as engine:
                return [e.render() for e in engine.run(elements)]

        assert run(2, injected=pool) == run(1)

    @given(data=tenant_scenario())
    @settings(max_examples=25, deadline=None)
    def test_decomposable_merge_bag_equals_single_engine(self, data):
        elements, text, shards = data
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(text, sink=sink)
        engine.run_stream(elements)
        with ShardedEngine(
            queries=[text], classify=_classify_tenant, shards=shards,
        ) as sharded:
            merged = sharded.run(elements)
        assert [(e.query_name, e.instant) for e in merged] \
            == [(e.query_name, e.instant) for e in sink.emissions]
        for left, right in zip(merged, sink.emissions):
            assert left.table.table.bag_equals(right.table.table)
