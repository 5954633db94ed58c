"""Property-based tests for the fault-tolerant runtime.

For random streams with injected poison payloads, displaced (late)
events, and scheduled sink failures under the DEAD_LETTER policy:

* the resilient engine's emissions bag-equal the denotational
  :func:`repro.seraph.semantics.continuous_run` over the *surviving*
  in-order element set (resilience never changes the semantics of what
  survives);
* a checkpoint taken at an arbitrary mid-stream instant, restored into
  a fresh engine, yields bag-equal emissions for the remainder.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_stream
from repro.runtime import (
    FailureSchedule,
    FlakySink,
    FlakySource,
    Ingress,
)
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import SeraphEngine, parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream, StreamElement

PERIOD = 60
START = 60


def make_query(width_minutes, slide_minutes, policy):
    return parse_seraph(
        "REGISTER QUERY prop STARTING AT 1970-01-01T00:01\n"
        "{\n"
        f"  MATCH (a)-[r]->(b) WITHIN PT{width_minutes}M\n"
        f"  EMIT count(r) AS n {policy} EVERY PT{slide_minutes}M\n"
        "}\n"
    )


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    num_events = draw(st.integers(min_value=2, max_value=12))
    width = draw(st.integers(min_value=1, max_value=5))
    slide = draw(st.integers(min_value=1, max_value=3))
    policy = draw(st.sampled_from(["SNAPSHOT", "ON ENTERING"]))
    lateness = draw(st.sampled_from([0, PERIOD, 3 * PERIOD]))
    poison_rate = draw(st.sampled_from([0.0, 0.2, 0.4]))
    displace_rate = draw(st.sampled_from([0.0, 0.3, 0.6]))
    elements = random_stream(
        random.Random(seed),
        num_events=num_events,
        period=PERIOD,
        start=START,
        shared_node_pool=5,
        nodes_per_event=3,
        relationships_per_event=2,
    )
    items = list(
        FlakySource(
            elements,
            seed=seed + 1,
            poison_rate=poison_rate,
            displace_rate=displace_rate,
            displace_by=draw(st.integers(min_value=1, max_value=4)),
        )
    )
    query = make_query(width, slide, policy)
    until = START + (num_events + 2) * PERIOD
    return seed, elements, items, query, lateness, until


def emission_tables(emissions):
    return [(e.instant, e.table.win_start, e.table.win_end, e.table.table)
            for e in emissions]


def expected_tables(query, survivors, until):
    stream = PropertyGraphStream(
        sorted(survivors, key=lambda el: el.instant)
    )
    return [
        (entry.interval, entry.table)
        for entry in continuous_run(query, stream, until)
    ]


def surviving_elements(elements, *engines):
    """Elements that made it into the engine: the clean stream minus the
    dead-lettered (late) ones.  Restored dead-letter entries carry the
    JSON rendering of their payload, not the original object, so the
    pre-checkpoint engine must be consulted too — pass every engine that
    ran part of the stream."""
    dead = {
        id(entry.payload)
        for engine in engines
        for entry in engine.dead_letters
        if isinstance(entry.payload, StreamElement)
    }
    return [element for element in elements if id(element) not in dead]


class TestResilientRunMatchesDenotation:
    @given(data=scenario())
    @settings(max_examples=40, deadline=None)
    def test_emissions_bag_equal_continuous_run_on_survivors(self, data):
        seed, elements, items, query, lateness, until = data
        flaky = FlakySink(FailureSchedule.every(3))  # never 2 consecutive
        engine = SeraphEngine(ingress=Ingress(
            allowed_lateness=lateness,
            retry=RetryPolicy(max_attempts=3, seed=seed),
            sleep=lambda _: None,
        ))
        engine.register(query, sink=flaky)
        emissions = engine.run_stream(items, until=until)

        survivors = surviving_elements(elements, engine)
        expected = expected_tables(query, survivors, until)
        produced = emission_tables(emissions)

        assert len(produced) == len(expected)
        for (instant, win_start, win_end, table), (interval, reference) in \
                zip(produced, expected):
            assert (win_start, win_end) == (interval.start, interval.end)
            assert table.bag_equals(reference), (
                f"emission at {instant} diverged from the denotational run"
            )
        # Retries were sufficient: every emission was delivered.
        assert len(flaky.delivered) == len(emissions)

    @given(data=scenario(), split_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_checkpoint_restore_remainder_bag_equal(
        self, data, split_fraction
    ):
        seed, elements, items, query, lateness, until = data
        split = int(len(items) * split_fraction)

        engine = SeraphEngine(ingress=Ingress(allowed_lateness=lateness))
        engine.register(query)
        emissions = []
        for item in items[:split]:
            emissions.extend(engine.ingest_element(item))

        restored = SeraphEngine.from_checkpoint(engine.checkpoint())
        for item in items[split:]:
            emissions.extend(restored.ingest_element(item))
        emissions.extend(restored.flush(until))

        survivors = surviving_elements(elements, engine, restored)
        expected = expected_tables(query, survivors, until)
        produced = emission_tables(emissions)

        assert len(produced) == len(expected)
        for (instant, win_start, win_end, table), (interval, reference) in \
                zip(produced, expected):
            assert (win_start, win_end) == (interval.start, interval.end)
            assert table.bag_equals(reference), (
                f"post-restore emission at {instant} diverged"
            )
