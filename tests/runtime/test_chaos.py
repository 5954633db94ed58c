"""Chaos runs against the resilient engine.

The acceptance contract of the chaos harness: one :class:`ChaosConfig`
seed drives poison payloads and displaced arrivals at the source and
scheduled failures at the sink, through ``EngineConfig(resilient=True,
chaos=...)``, and the ingress absorbs them — emissions stay
**byte-identical** to the clean run.  Every run here reproduces
exactly.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, build_engine
from repro.errors import EngineError
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.runtime import ChaosConfig
from repro.runtime.faults import FlakySink, FlakySource
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import CollectingSink
from repro.stream.stream import StreamElement

from tests.modes import SLOW_TWIN

pytestmark = pytest.mark.chaos

CHAIN_QUERY = """
REGISTER QUERY chains STARTING AT 1970-01-01T00:00
{
  MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WITHIN PT40S
  EMIT id(a) AS src, id(c) AS dst SNAPSHOT EVERY PT10S
}
"""


def _element(index):
    base = 3 * index
    nodes = [
        Node(id=base + offset, labels=("Person",), properties=())
        for offset in range(3)
    ]
    rels = [
        Relationship(id=2 * index, type="KNOWS", src=base, trg=base + 1,
                     properties=()),
        Relationship(id=2 * index + 1, type="KNOWS", src=base + 1,
                     trg=base + 2, properties=()),
    ]
    return StreamElement(graph=PropertyGraph.of(nodes, rels),
                         instant=10 * (index + 1))


def _stream(count=8):
    return [_element(index) for index in range(count)]


class TestEngineConfigChaosPath:
    """FlakySink/FlakySource run through EngineConfig, so the CLI and
    the chaos harness share one seeded fault path."""

    def test_source_chaos_quarantines_poison_and_preserves_emissions(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [
            e.render() for e in clean.run_stream(_stream())
        ]

        chaotic = build_engine(EngineConfig(
            resilient=True, allowed_lateness=30,
            chaos=ChaosConfig(seed=5, source_poison_rate=0.4),
        ))
        chaotic.register(CHAIN_QUERY)
        emissions = [e.render() for e in chaotic.run_stream(_stream())]
        assert emissions == expected
        assert chaotic.obs.registry.value("resilience.poison_rejected") >= 1
        assert len(chaotic.dead_letters) >= 1

    def test_displaced_arrivals_are_resequenced(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]

        chaotic = build_engine(EngineConfig(
            resilient=True, allowed_lateness=30,
            chaos=ChaosConfig(seed=5, source_displace_rate=0.4,
                              source_displace_by=2),
        ))
        chaotic.register(CHAIN_QUERY)
        emissions = [e.render() for e in chaotic.run_stream(_stream())]
        assert emissions == expected
        assert chaotic.obs.registry.value("resilience.reordered") >= 1

    def test_sink_chaos_is_absorbed_by_delivery_retries(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]

        chaotic = build_engine(EngineConfig(
            resilient=True,
            chaos=ChaosConfig(seed=6, sink_failure_rate=0.3),
            retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                              max_delay=0.0, jitter=0.0),
        ))
        sink = CollectingSink()
        chaotic.register(CHAIN_QUERY, sink=sink)
        chaotic.run_stream(_stream())
        # The flaky layer sits under the resilient one: the user sink
        # still received every emission the clean run produced.
        assert [e.render() for e in sink.emissions] == expected
        assert chaotic.obs.registry.value("resilience.retried") >= 1
        # sink() unwraps both resilience and chaos layers.
        assert chaotic.sink("chains") is sink

    def test_chaos_profile_drives_every_axis_from_one_seed(self):
        profile = ChaosConfig.profile(seed=9)
        assert profile.wants_source_chaos
        assert profile.wants_sink_chaos
        assert isinstance(profile.source([]), FlakySource)
        assert isinstance(profile.sink(CollectingSink()), FlakySink)

    def test_config_rejects_non_chaosconfig(self):
        with pytest.raises(EngineError, match="chaos"):
            EngineConfig(chaos="0.5")

    def test_chaos_without_the_ingress_is_refused(self):
        """Nothing but the ingress injects chaos: a config that asks for
        it without one used to run clean, all emissions delivered."""
        with pytest.raises(EngineError, match="resilient=True"):
            build_engine(EngineConfig(chaos=ChaosConfig(
                seed=1, sink_failure_rate=1.0, source_poison_rate=1.0,
            )))

    def test_full_profile_end_to_end_through_build_engine(self):
        engine = build_engine(EngineConfig(
            **SLOW_TWIN, resilient=True, allowed_lateness=30,
            chaos=ChaosConfig(
                seed=13, source_poison_rate=0.2, sink_failure_rate=0.2,
            ),
            retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                              max_delay=0.0, jitter=0.0),
        ))
        clean = build_engine(EngineConfig(
            resilient=True, **SLOW_TWIN,
        ))
        for target in (engine, clean):
            target.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]
        emissions = [e.render() for e in engine.run_stream(_stream())]
        assert emissions == expected
        registry = engine.obs.registry
        assert registry.value("resilience.poison_rejected") >= 1
        assert registry.value("resilience.sink_failures") >= 1
