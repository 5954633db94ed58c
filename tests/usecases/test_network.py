"""Unit tests for the network monitoring use case (Listing 2)."""

import json
import re

import pytest

from repro.cypher import run_cypher
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.seraph import CollectingSink, SeraphEngine, StreamMaterializer
from repro.stream.stream import StreamElement
from repro.usecases.network import (
    MEAN_HOPS,
    NetworkConfig,
    NetworkStreamGenerator,
    NetworkTopology,
    anomalous_routes_query,
    anomalous_routes_query_data_driven,
    pipeline_queries,
)


@pytest.fixture(scope="module")
def generator():
    return NetworkStreamGenerator(NetworkConfig(events=20, seed=13))


@pytest.fixture(scope="module")
def stream(generator):
    return generator.stream()


class TestTopology:
    def test_healthy_route_is_five_hops(self):
        topology = NetworkTopology(NetworkConfig())
        graph = topology.configuration_graph(down_uplinks=set())
        table = run_cypher(
            "MATCH p = shortestPath((rack:Rack)-[*..20]-(e:Router {egress: true})) "
            "RETURN rack.id AS rack, length(p) AS hops ORDER BY rack",
            graph,
        )
        assert len(table) == NetworkConfig().racks
        assert all(record["hops"] == MEAN_HOPS for record in table)

    def test_downed_uplink_lengthens_route(self):
        config = NetworkConfig()
        topology = NetworkTopology(config)
        graph = topology.configuration_graph(down_uplinks={1})
        table = run_cypher(
            "MATCH p = shortestPath((rack:Rack)-[*..20]-(e:Router {egress: true})) "
            "RETURN rack.id AS rack, length(p) AS hops",
            graph,
        )
        affected = [
            record["hops"]
            for record in table
            if topology.router_of_rack(record["rack"]) == 1
        ]
        assert affected and all(hops > MEAN_HOPS for hops in affected)

    def test_no_rack_unreachable_under_single_fault(self):
        # The paper's redundancy property: hops increase, nothing drops off.
        topology = NetworkTopology(NetworkConfig())
        graph = topology.configuration_graph(down_uplinks={2})
        table = run_cypher(
            "MATCH p = shortestPath((rack:Rack)-[*..20]-(e:Router {egress: true})) "
            "RETURN count(*) AS reachable",
            graph,
        )
        assert table.records[0]["reachable"] == NetworkConfig().racks


class TestStream:
    def test_every_event_is_full_configuration(self, stream):
        for element in stream:
            racks = list(element.graph.nodes_with_labels(["Rack"]))
            assert len(racks) == NetworkConfig().racks

    def test_fault_schedule_recorded(self, generator, stream):
        # faults_at is defined for every arrival instant.
        for element in stream:
            generator.faults_at(element.instant)  # must not raise


class TestContinuousAnomalyDetection:
    def test_anomalies_only_for_faulty_routers(self, generator, stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(anomalous_routes_query(), sink=sink)
        engine.run_stream(stream)
        topology = generator.topology
        for emission in sink.non_empty():
            down = generator.faults_at(emission.instant)
            assert down, "anomaly reported while no uplink was down"
            for record in emission.table:
                assert topology.router_of_rack(record["rack_id"]) in down

    def test_snapshot_union_masks_fresh_faults(self, generator, stream):
        """A fault younger than the window is invisible: older healthy
        configurations keep the link alive in the snapshot union."""
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(anomalous_routes_query(), sink=sink)
        engine.run_stream(stream)
        fault_starts = []
        previous = set()
        for element in stream:
            current = generator.faults_at(element.instant)
            for router in current - previous:
                fault_starts.append((element.instant, router))
            previous = current
        emissions_at = {
            emission.instant for emission in sink.non_empty()
        }
        for started_at, _router in fault_starts:
            assert started_at not in emissions_at or not fault_starts

    def test_data_driven_variant_parses_and_runs(self, stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(anomalous_routes_query_data_driven(), sink=sink)
        engine.run_stream(stream[:5])
        assert len(sink.emissions) >= 1


class TestDetectEnrichAlertPipeline:
    """The three-stage ``EMIT ... INTO`` pipeline (docs/DATAFLOW.md) in
    one fused engine emits, stage for stage, the bytes of the deployment
    it replaces: one engine per stage, each stage's emissions
    materialized and shipped as JSON into the next, all advanced in
    lockstep."""

    STREAMS = ("route_anomalies", "rack_alerts")

    @pytest.fixture(scope="class")
    def faulty_stream(self):
        return NetworkStreamGenerator(NetworkConfig(
            racks=16, routers=6, events=20, fault_rate=0.5, seed=11,
        )).stream()

    def run_fused(self, stream):
        engine = SeraphEngine()
        sinks = [CollectingSink() for _ in range(3)]
        for text, sink in zip(pipeline_queries(), sinks):
            engine.register(text, sink=sink)
        engine.run_stream(stream)
        return [[e.render() for e in sink.emissions] for sink in sinks]

    def run_glued(self, stream):
        engines = [SeraphEngine() for _ in range(3)]
        sinks = [CollectingSink() for _ in range(3)]
        for engine, text, sink in zip(engines, pipeline_queries(), sinks):
            engine.register(re.sub(r"\n\s*INTO \w+", "", text), sink=sink)
        materializers = [StreamMaterializer(name) for name in self.STREAMS]
        shipped = [0, 0]

        def ship(stage):
            """Stage ``stage``'s new emissions over a JSON wire into the
            next engine."""
            for emission in sinks[stage].emissions[shipped[stage]:]:
                shipped[stage] += 1
                element = materializers[stage].materialize(emission)
                if element is None:
                    continue
                payload = json.loads(json.dumps({
                    "instant": element.instant,
                    "graph": graph_to_dict(element.graph),
                }))
                engines[stage + 1].ingest_element(
                    StreamElement(graph=graph_from_dict(payload["graph"]),
                                  instant=payload["instant"]),
                    self.STREAMS[stage],
                )

        def advance(until):
            engines[0].advance_to(until)
            ship(0)
            engines[1].advance_to(until)
            ship(1)
            engines[2].advance_to(until)

        for element in stream:
            advance(element.instant - 1)
            engines[0].ingest_element(element)
        advance(stream[-1].instant)
        return [[e.render() for e in sink.emissions] for sink in sinks]

    def test_fused_engine_is_byte_identical_to_lockstep_glue(
        self, faulty_stream
    ):
        fused = self.run_fused(faulty_stream)
        assert fused == self.run_glued(faulty_stream)
        assert any("rack_id" in text for text in fused[2])  # alerts fired
