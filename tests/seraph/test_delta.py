"""Unit tests for the delta-driven incremental evaluation layer
(:mod:`repro.seraph.delta`)."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.seraph import CollectingSink, SeraphEngine, parse_seraph
from repro.seraph.delta import (
    WindowDelta,
    delta_ineligibility,
    dirty_neighborhood,
    pattern_hops,
)
from repro.stream.snapshot import SnapshotMaintainer
from repro.stream.stream import StreamElement

from ..modes import MODES, assert_equals_denotation, run_mode


def query_of(body):
    return parse_seraph(
        "REGISTER QUERY q STARTING AT 1970-01-01T00:00\n{\n"
        + body
        + "\n}"
    )


def knows_element(index, instant=None):
    left = Node(id=2 * index, labels=("Person",), properties=())
    right = Node(id=2 * index + 1, labels=("Person",), properties=())
    rel = Relationship(
        id=index, type="KNOWS", src=left.id, trg=right.id, properties=()
    )
    return StreamElement(
        graph=PropertyGraph.of([left, right], [rel]),
        instant=instant if instant is not None else index + 1,
    )


class TestEligibility:
    def test_simple_continuous_match_is_eligible(self):
        query = query_of(
            "MATCH (a:Person)-[k:KNOWS]->(b) WITHIN PT10S\n"
            "EMIT id(a) AS a SNAPSHOT EVERY PT2S"
        )
        assert delta_ineligibility(query) is None

    def test_bounded_var_length_is_eligible(self):
        query = query_of(
            "MATCH (a)-[:KNOWS*1..3]->(b) WITHIN PT10S\n"
            "EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY PT2S"
        )
        assert delta_ineligibility(query) is None

    def test_aggregates_are_eligible(self):
        # Aggregates recompute from the merged assignment set.
        query = query_of(
            "MATCH (a)-[r:KNOWS]->(b) WITHIN PT10S\n"
            "EMIT id(a) AS a, count(r) AS n ON ENTERING EVERY PT2S"
        )
        assert delta_ineligibility(query) is None

    @pytest.mark.parametrize(
        "body, reason_part",
        [
            (
                "MATCH (n) WITHIN PT10S\nRETURN id(n) AS n",
                "RETURN-terminal",
            ),
            (
                "MATCH (n) WITHIN PT10S\n"
                "EMIT id(n) AS n, win_start AS s SNAPSHOT EVERY PT2S",
                "win_start",
            ),
            (
                "MATCH (a)-[]->(b) WITHIN PT10S\n"
                "MATCH (b)-[]->(c) WITHIN PT10S\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "single MATCH",
            ),
            (
                "OPTIONAL MATCH (a)-[]->(b) WITHIN PT10S\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "OPTIONAL",
            ),
            (
                "MATCH (a)-[]->(b), (c)-[]->(d) WITHIN PT10S\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "multi-path",
            ),
            (
                "MATCH p = shortestPath((a)-[*..3]->(b)) WITHIN PT10S\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "shortestPath",
            ),
            (
                "MATCH (a)-[:KNOWS*2..]->(b) WITHIN PT10S\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "unbounded",
            ),
            (
                "MATCH (a) WITHIN PT10S WHERE (a)-[:KNOWS]->()\n"
                "EMIT id(a) AS a SNAPSHOT EVERY PT2S",
                "pattern predicate",
            ),
        ],
    )
    def test_ineligible_constructs(self, body, reason_part):
        query = query_of(body)
        reason = delta_ineligibility(query)
        assert reason is not None
        assert reason_part.lower() in reason.lower()


class TestDeltaHelpers:
    def test_window_delta_carries_net_changes_only(self):
        """The ids come from the maintainer's net-change record: an
        element whose every contribution is already live (a count bump)
        dirties nothing; a vanished relationship still seeds its ends."""
        maintainer = SnapshotMaintainer()
        leaving = knows_element(5)
        maintainer.add(knows_element(1))
        maintainer.add(leaving)
        maintainer.graph()
        maintainer.add(knows_element(1, instant=9))  # count bump only
        maintainer.add(knows_element(3))
        maintainer.remove(leaving)
        delta = WindowDelta(
            changed_nodes=frozenset(maintainer.changed_nodes),
            changed_rels=frozenset(maintainer.changed_rels),
            changed_endpoints=frozenset(maintainer.changed_endpoints),
        )
        assert delta.dirty_entities() == {
            ("n", 6), ("n", 7), ("r", 3), ("n", 10), ("n", 11), ("r", 5),
        }
        assert delta.seed_node_ids() == {6, 7, 10, 11}

    def test_relationship_only_change_seeds_its_endpoints(self):
        delta = WindowDelta(
            changed_rels=frozenset({4}), changed_endpoints=frozenset({8, 9})
        )
        assert delta.dirty_entities() == {("r", 4)}
        assert delta.seed_node_ids() == {8, 9}
        assert not WindowDelta().seed_node_ids()

    def test_pattern_hops(self):
        query = query_of(
            "MATCH (a)-[:A]->(b)-[:B*2..4]->(c) WITHIN PT10S\n"
            "EMIT id(a) AS a SNAPSHOT EVERY PT2S"
        )
        path = query.body[0].match.pattern.paths[0]
        assert pattern_hops(path) == 5

    def test_dirty_neighborhood_radius(self):
        builder = GraphBuilder()
        ids = [builder.add_node([], {}, node_id=i) for i in range(5)]
        for left, right in zip(ids, ids[1:]):
            builder.add_relationship(left, "R", right)
        graph = builder.build()
        assert dirty_neighborhood(graph, {0}, 0) == {0}
        assert dirty_neighborhood(graph, {0}, 2) == {0, 1, 2}
        assert dirty_neighborhood(graph, {2}, 1) == {1, 2, 3}
        # Seeds absent from the current graph are ignored.
        assert dirty_neighborhood(graph, {99}, 3) == set()
        # Growth stops once the limit is reached; below it, it is exact.
        assert len(dirty_neighborhood(graph, {0}, 4, limit=2)) >= 2
        assert len(dirty_neighborhood(graph, {0}, 4, limit=2)) < 5
        assert dirty_neighborhood(graph, {0}, 4, limit=6) == {0, 1, 2, 3, 4}


class TestEngineDeltaPath:
    QUERY = """
    REGISTER QUERY q STARTING AT 1970-01-01T00:00:00
    {
      MATCH (a:Person)-[k:KNOWS]->(b:Person) WITHIN PT10S
      EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY PT2S
    }
    """

    def run(self, reference):
        engine = SeraphEngine(reference=reference)
        sink = CollectingSink()
        registered = engine.register(self.QUERY, sink=sink)
        engine.run_stream([knows_element(i) for i in range(1, 30)], until=30)
        return registered, sink

    def test_delta_counters_and_transparency(self):
        with_delta, sink_delta = self.run(False)
        without, sink_full = self.run(True)
        assert with_delta.delta_reason is None
        assert with_delta.counters["path.delta"].value > 0
        assert with_delta.counters["assignments_retained"].value > 0
        assert without.counters["path.delta"].value == 0
        assert len(sink_delta.emissions) == len(sink_full.emissions)
        for left, right in zip(sink_delta.emissions, sink_full.emissions):
            assert left.table.bag_equals(right.table)

    def test_status_reports_delta_counters(self):
        engine_status_keys = {"delta", "delta_full_refreshes", "delta_reason"}
        engine = SeraphEngine()
        engine.register(self.QUERY, sink=CollectingSink())
        status = engine.status()
        assert engine_status_keys <= set(status["queries"]["q"])
        assert status["mode"] == "production"

    def test_ineligible_query_falls_back(self):
        engine = SeraphEngine()
        sink = CollectingSink()
        registered = engine.register(
            """
            REGISTER QUERY sp STARTING AT 1970-01-01T00:00:00
            {
              MATCH p = shortestPath((a:Person)-[*..3]->(b:Person)) WITHIN PT10S
              EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY PT2S
            }
            """,
            sink=sink,
        )
        engine.run_stream([knows_element(i) for i in range(1, 10)], until=10)
        assert registered.delta_reason is not None
        assert registered.delta_state is None
        assert registered.counters["path.delta"].value == 0
        assert any(not emission.is_empty() for emission in sink.emissions)

    def test_checkpoint_roundtrip_preserves_the_reference_twin(self):
        from repro.runtime.checkpoint import engine_from_json, checkpoint_to_json

        engine = SeraphEngine(reference=True)
        engine.register(self.QUERY, sink=CollectingSink())
        restored = engine_from_json(checkpoint_to_json(engine))
        assert restored.reference is True
        assert restored.registered("q").delta_state is None

    def test_checkpoint_without_delta_key_defaults_on(self):
        import json

        from repro.runtime.checkpoint import checkpoint_to_json, engine_from_json

        engine = SeraphEngine()
        engine.register(self.QUERY, sink=CollectingSink())
        document = json.loads(checkpoint_to_json(engine))
        del document["config"]["delta_eval"]
        restored = engine_from_json(json.dumps(document))
        assert restored.reference is False


def overlapping_stream(count):
    """Element i carries KNOWS pair i, repeats pair i-1 verbatim and links
    the two (a chain): most of what enters or leaves the window is a
    count bump on a description some other element still carries."""
    elements = []
    for index in range(1, count + 1):
        nodes, rels = {}, []
        for pair in (index - 1, index):
            if pair < 1:
                continue
            graph = knows_element(pair).graph
            nodes.update(graph.nodes)
            rels.extend(graph.relationships.values())
        if index > 1:
            rels.append(Relationship(
                id=500 + index, type="KNOWS", src=2 * index - 1,
                trg=2 * index, properties=(),
            ))
        elements.append(StreamElement(
            graph=PropertyGraph.of(nodes.values(), rels), instant=index,
        ))
    return elements


class TestNetDirtyDeltaAcrossModes:
    """The delta path driven by net change, per instant against the
    denotation, in production and in the reference twin."""

    TEMPLATE = """
    REGISTER QUERY q STARTING AT 1970-01-01T00:00:00
    {{
      MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
      WITHIN {width}
      EMIT id(a) AS a, id(c) AS c {policy} EVERY {slide}
    }}
    """
    #: name → (width, slide, report policy, with a static graph)
    SCENARIOS = {
        "sliding": ("PT16S", "PT2S", "SNAPSHOT", False),
        "entering": ("PT12S", "PT1S", "ON ENTERING", False),
        "tumbling": ("PT4S", "PT4S", "SNAPSHOT", False),
        "static": ("PT16S", "PT2S", "SNAPSHOT", True),
    }

    @staticmethod
    def static_graph():
        """Background pairs, one of them (pair 3) also streamed: stream
        contributions land on permanent ones, and a permanent link ties
        the streamed chain to the background."""
        graphs = [knows_element(pair).graph for pair in (3, 40, 41)]
        nodes, rels = {}, []
        for graph in graphs:
            nodes.update(graph.nodes)
            rels.extend(graph.relationships.values())
        rels.append(Relationship(id=900, type="KNOWS", src=81, trg=6,
                                 properties=()))
        return PropertyGraph.of(nodes.values(), rels)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_equals_the_denotation(self, mode, scenario):
        width, slide, policy, static = self.SCENARIOS[scenario]
        text = self.TEMPLATE.format(width=width, slide=slide, policy=policy)
        static_graph = self.static_graph() if static else None
        elements = overlapping_stream(24)
        sink = run_mode(mode, text, elements, 30, static_graph=static_graph)
        assert any(not emission.is_empty() for emission in sink.emissions)
        assert_equals_denotation(sink, text, elements, 30,
                                 static_graph=static_graph)

    def test_count_bumps_keep_assignments(self):
        """On the default path the overlapping stream is served by
        anchored re-matches that retain assignments, not by refreshes."""
        engine = SeraphEngine()
        registered = engine.register(self.TEMPLATE.format(
            width="PT10S", slide="PT2S", policy="SNAPSHOT"))
        engine.run_stream(overlapping_stream(24), until=30)
        assert registered.counters["path.delta"].value > 0
        assert registered.counters["assignments_retained"].value > 0

    def test_the_reference_twin_takes_the_full_path(self):
        engine = SeraphEngine(reference=True)
        registered = engine.register(self.TEMPLATE.format(
            width="PT10S", slide="PT2S", policy="SNAPSHOT"))
        assert registered.delta_state is None
        assert "net-change" in registered.delta_reason


class TestExplainDeltaLine:
    def test_eligible(self):
        from repro.seraph.explain import explain

        text = explain(TestEngineDeltaPath.QUERY)
        assert "delta eval" in text
        assert "eligible (incremental re-matching applies)" in text

    def test_ineligible_shows_reason(self):
        from repro.seraph.explain import explain

        text = explain(
            """
            REGISTER QUERY w STARTING AT 1970-01-01T00:00:00
            {
              MATCH (n) WITHIN PT10S
              EMIT id(n) AS n, win_end AS e SNAPSHOT EVERY PT2S
            }
            """
        )
        assert "full re-evaluation" in text
        assert "win_start/win_end" in text
