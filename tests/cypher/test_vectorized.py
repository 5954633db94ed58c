"""Unit tests for set-at-a-time candidate pruning (docs/VECTORIZED.md).

The contract under test: the pruner's candidate sets are exact-or-
superset intersections **in global node order**, memoized per snapshot
and invalidated by construction on graph change; the matcher consumes
them (start enumeration, expand-target probes, hoisted constant
properties) without changing a single result byte; and the counters
surface through EXPLAIN ANALYZE as ``candidates=``/``pruned=``.
"""

import pickle

import pytest

from repro.cypher import ast
from repro.cypher.evaluator import QueryEvaluator, run_cypher
from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.parser import parse_cypher
from repro.cypher.physical import (
    PlanProfile,
    compile_query,
    execute_plan,
    render_plan,
)
from repro.cypher.vectorized import CandidatePruner, pattern_signature
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.seraph.parser import parse_seraph
from repro.stream.timeline import TimeInterval


def n(node_id, labels=(), **props):
    return Node(id=node_id, labels=frozenset(labels), properties=props)


def r(rel_id, src, trg, rel_type="R", **props):
    return Relationship(id=rel_id, type=rel_type, src=src, trg=trg,
                        properties=props)


def _pair():
    """The same selective graph in both backends: 12 nodes, 4 hot."""
    nodes = [
        n(i, ["N", "Hot"] if i % 3 == 0 else ["N"],
          flag=(i % 3 == 0), score=i % 4)
        for i in range(12)
    ]
    rels = [r(100 + i, i, (i + 1) % 12, "R") for i in range(12)]
    return (PropertyGraph.of(nodes, rels), ColumnarGraph.of(nodes, rels))


def _node_pattern(fragment):
    """The first node pattern of ``MATCH <fragment> RETURN 1``."""
    query = parse_cypher(f"MATCH {fragment} RETURN 1")
    return query.parts[0].clauses[0].pattern.paths[0].nodes[0]


BOTH = pytest.mark.parametrize("backend", ["reference", "columnar"])


def _graph_for(backend):
    ref, col = _pair()
    return ref if backend == "reference" else col


class TestPatternSignature:
    def test_label_less_pattern_is_unprunable(self):
        assert pattern_signature(_node_pattern("(a {flag: true})")) is None
        assert pattern_signature(_node_pattern("(a)")) is None

    def test_non_literal_property_stays_residual(self):
        signature = pattern_signature(
            _node_pattern("(a:N {flag: true, score: 1 + 1})")
        )
        labels, const_props = signature
        assert labels == frozenset({"N"})
        assert [key for key, _bucket in const_props] == ["flag"]

    def test_unindexable_literal_stays_residual(self):
        signature = pattern_signature(_node_pattern("(a:N {flag: null})"))
        assert signature == (frozenset({"N"}), ())

    def test_numeric_literals_share_a_bucket(self):
        one = pattern_signature(_node_pattern("(a:N {score: 1})"))
        one_f = pattern_signature(_node_pattern("(a:N {score: 1.0})"))
        assert one == one_f


class TestPrunedSets:
    @BOTH
    def test_label_only_set_equals_label_scan(self, backend):
        graph = _graph_for(backend)
        pruned = CandidatePruner(graph).pruned_set(_node_pattern("(a:N:Hot)"))
        scan = list(graph.nodes_with_labels(["N", "Hot"]))
        assert list(pruned.nodes) == scan
        assert pruned.ids == {node.id for node in scan}
        assert pruned.pruned >= 0

    @BOTH
    def test_property_set_is_ordered_superset_of_matches(self, backend):
        graph = _graph_for(backend)
        pruned = CandidatePruner(graph).pruned_set(
            _node_pattern("(a:N {flag: true})")
        )
        scan = [node.id for node in graph.nodes_with_labels(["N"])]
        true_matches = [
            node.id for node in graph.nodes_with_labels(["N"])
            if node.properties.get("flag") is True
        ]
        kept = [node.id for node in pruned.nodes]
        # Superset of the true matches, subset of the label scan, and in
        # global (label-scan) order.
        assert set(true_matches) <= set(kept) <= set(scan)
        assert kept == [node_id for node_id in scan if node_id in set(kept)]
        assert pruned.base_count == len(scan)
        assert pruned.pruned == len(scan) - len(kept)

    @BOTH
    def test_missing_label_yields_empty_set(self, backend):
        graph = _graph_for(backend)
        pruned = CandidatePruner(graph).pruned_set(_node_pattern("(a:N:Ghost)"))
        assert pruned.nodes == () and pruned.ids == frozenset()

    @BOTH
    def test_missing_property_bucket_yields_empty_set(self, backend):
        graph = _graph_for(backend)
        pruned = CandidatePruner(graph).pruned_set(
            _node_pattern("(a:N {flag: 'nope'})")
        )
        assert pruned.nodes == ()
        assert pruned.base_count == len(list(graph.nodes_with_labels(["N"])))

    def test_backends_agree_on_every_set(self):
        ref, col = _pair()
        for fragment in ["(a:N)", "(a:Hot)", "(a:N:Hot)",
                         "(a:N {flag: true})", "(a:N {score: 1})",
                         "(a:N {flag: false, score: 2})"]:
            pattern = _node_pattern(fragment)
            left = CandidatePruner(ref).pruned_set(pattern)
            right = CandidatePruner(col).pruned_set(pattern)
            assert [node.id for node in left.nodes] \
                == [node.id for node in right.nodes]
            assert left.base_count == right.base_count


class TestMemoLifecycle:
    @BOTH
    def test_pruners_over_one_snapshot_share_its_memo(self, backend):
        graph = _graph_for(backend)
        pattern = _node_pattern("(a:N {flag: true})")
        first = CandidatePruner(graph).pruned_set(pattern)
        second_pruner = CandidatePruner(graph)
        assert second_pruner.pruned_set(pattern) is first
        # The second pruner built nothing: its timer never started.
        assert second_pruner.build_seconds == 0.0

    @BOTH
    def test_repeated_sets_hit_the_memo(self, backend):
        graph = _graph_for(backend)
        pruner = CandidatePruner(graph)
        pattern = _node_pattern("(a:N {flag: true})")
        first = pruner.pruned_set(pattern)
        # A *distinct* AST node with the same constant part shares the
        # signature, so the memo serves the identical object.
        again = pruner.pruned_set(_node_pattern("(a:N {flag: true})"))
        assert again is first
        assert len(graph.candidate_sets) == 1
        assert pruner.build_seconds >= 0.0

    @BOTH
    def test_patched_overlay_invalidates_by_construction(self, backend):
        graph = _graph_for(backend)
        pruner = CandidatePruner(graph)
        stale = pruner.pruned_set(_node_pattern("(a:N {flag: true})"))
        patched = graph.patched(nodes=[n(50, ["N"], flag=True)])
        assert patched.candidate_sets == {}
        fresh = CandidatePruner(patched).pruned_set(
            _node_pattern("(a:N {flag: true})")
        )
        assert 50 in fresh.ids and 50 not in stale.ids
        # The original snapshot's memo is untouched.
        assert pruner.pruned_set(_node_pattern("(a:N {flag: true})")) is stale

    @BOTH
    def test_memo_never_crosses_a_pickle_boundary(self, backend):
        graph = _graph_for(backend)
        CandidatePruner(graph).pruned_set(_node_pattern("(a:N)"))
        assert graph.candidate_sets
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.candidate_sets == {}  # rebuilt on demand


QUERIES = [
    "MATCH (a:N {flag: true})-[:R]->(b:N) RETURN id(a) AS a, id(b) AS b",
    "MATCH (a:N:Hot)-[:R]->(b:N {flag: false}) RETURN id(a), id(b)",
    "MATCH (a:Hot)-[*1..2]->(b:N {flag: true}) RETURN id(a), id(b)",
    "MATCH (a:N {score: 1})-[:R]->(b) RETURN id(a), id(b)",
    "MATCH (a:N {score: 1.0}) RETURN id(a)",
    "MATCH (a:N {flag: true}) WHERE a.score > 0 RETURN count(a) AS hits",
    "MATCH p = shortestPath((a:Hot)-[*..3]->(b:Hot)) "
    "WHERE id(a) <> id(b) RETURN id(a), id(b)",
    "OPTIONAL MATCH (a:Ghost {flag: true}) RETURN id(a)",
    "MATCH (a {flag: true}) RETURN id(a)",  # unprunable: no label
]


class TestByteIdentity:
    @BOTH
    @pytest.mark.parametrize("text", QUERIES)
    def test_vectorized_equals_interpreted(self, backend, text):
        graph = _graph_for(backend)
        plain = run_cypher(text, graph, vectorized=False)
        pruned = run_cypher(text, graph, vectorized=True)
        assert plain.render() == pruned.render()
        assert list(plain) == list(pruned)


class TestConstantPropertyHoist:
    def test_literal_evaluated_once_per_pattern_not_per_candidate(
        self, monkeypatch
    ):
        graph, _ = _pair()
        literal_evals = []
        original = ExpressionEvaluator.evaluate

        def counting(self, expression, scope):
            if isinstance(expression, ast.Literal):
                literal_evals.append(expression)
            return original(self, expression, scope)

        monkeypatch.setattr(ExpressionEvaluator, "evaluate", counting)
        table = run_cypher(
            "MATCH (a:N {flag: true}) RETURN id(a)", graph,
            vectorized=False,
        )
        assert len(table) == 4  # 12 N-candidates walked
        # Hoisted: one evaluation for the pattern's literal, not one per
        # candidate the label scan enumerates.
        assert len(literal_evals) == 1

    def test_hoist_cache_is_per_matcher_and_id_safe(self):
        graph, _ = _pair()
        evaluator = QueryEvaluator(graph)
        properties = _node_pattern("(a:N {flag: true})").properties
        first = evaluator.matcher._const_entries(properties)
        assert evaluator.matcher._const_entries(properties) is first
        key, is_const, value = first[0]
        assert (key, is_const, value) == ("flag", True, True)


SEEK_QUERY = """
REGISTER QUERY q STARTING AT 1970-01-01T00:00h
{
  MATCH (a:N {flag: true})-[:R]->(b:N)
  WITHIN PT10S
  EMIT id(a) AS a, id(b) AS b
  SNAPSHOT EVERY PT10S
}
"""

VARLEN_QUERY = """
REGISTER QUERY q STARTING AT 1970-01-01T00:00h
{
  MATCH (a:Hot)-[*1..2]->(b:N {flag: true})
  WITHIN PT10S
  EMIT id(a) AS a, id(b) AS b
  SNAPSHOT EVERY PT10S
}
"""


class TestPlanCounters:
    def _execute(self, text, graph, vectorized):
        plan = compile_query(parse_seraph(text), lambda _s, _w: graph)
        profile = PlanProfile()
        table = execute_plan(
            plan, lambda _s, _w: graph, TimeInterval(0, 100),
            vectorized=vectorized, profile=profile,
        )
        assert bool(profile.prunes) == vectorized
        return plan, table, profile

    @BOTH
    def test_prune_counters_reach_render_plan(self, backend):
        graph = _graph_for(backend)
        plan, table, profile = self._execute(
            SEEK_QUERY, graph, vectorized=True
        )
        text = render_plan(plan, profile)
        assert "candidates=" in text and "pruned=" in text
        baseline = execute_plan(
            plan, lambda _s, _w: graph, TimeInterval(0, 100)
        )
        assert table.render() == baseline.render()

    @BOTH
    def test_expand_probe_prunes_targets(self, backend):
        graph = _graph_for(backend)
        plan, table, profile = self._execute(
            "REGISTER QUERY q STARTING AT 1970-01-01T00:00h\n"
            "{ MATCH (a:N {flag: true})-[:R]->(b:N {flag: true}) "
            "WITHIN PT10S\n"
            "  EMIT id(a) AS a SNAPSHOT EVERY PT10S }",
            graph, vectorized=True,
        )
        candidates, pruned = profile.prunes[plan.stages[0].ops[(0, 0)]]
        # Whichever end the planner anchors on, the 4 flagged starts each
        # expand to one ring neighbour, and every neighbour fails the
        # membership probe into the other end's pruned set.
        assert (candidates, pruned) == (4, 4)
        assert len(table) == 0

    @BOTH
    def test_var_length_rows_count_expanded_before_filtering(self, backend):
        graph = _graph_for(backend)
        plan, table, profile = self._execute(
            VARLEN_QUERY, graph, vectorized=False
        )
        expanded = profile.rows[plan.stages[0].ops[(0, 0)]]
        # Every hop-1 and hop-2 expansion is accounted, not just the ones
        # whose terminal node passes the (b:N {flag: true}) filter.
        assert expanded == 8  # 4 Hot starts x 2 depths x 1 neighbour
        assert len(table) < expanded

    @BOTH
    def test_counters_are_identical_with_and_without_pruning(self, backend):
        graph = _graph_for(backend)
        _plan, _table, plain = self._execute(
            VARLEN_QUERY, graph, vectorized=False
        )
        _plan, _table, pruned = self._execute(
            VARLEN_QUERY, graph, vectorized=True
        )
        assert plain.rows == pruned.rows


class TestEngineWiring:
    def _stream(self):
        from repro.stream.stream import StreamElement

        ref, _ = _pair()
        return [StreamElement(graph=ref, instant=1)]

    def test_engine_status_reports_the_resolved_flag(self):
        """``vectorized=None`` means on under columnar, off under
        reference; an explicit value wins either way."""
        from repro import EngineConfig, build_engine

        def resolved(**kwargs):
            return build_engine(EngineConfig(**kwargs)).status()["vectorized"]

        assert resolved() is False
        assert resolved(graph_backend="columnar") is True
        assert resolved(vectorized=True) is True
        assert resolved(graph_backend="columnar", vectorized=False) is False

    def test_explain_analyze_surfaces_prunes_and_vectorize_stage(self):
        from repro import EngineConfig, build_engine
        from repro.seraph import CollectingSink
        from repro.seraph.explain import explain_analyze

        engine = build_engine(EngineConfig(
            observability=True, vectorized=True, delta_eval=False,
        ))
        sink = CollectingSink()
        engine.register(SEEK_QUERY, sink=sink)
        engine.run_stream(self._stream())
        text = explain_analyze(engine, "q")
        assert "pruned=" in text and "candidates=" in text
        assert "vectorize" in text

    def test_vectorized_engine_emits_identically(self):
        from repro import EngineConfig, build_engine
        from repro.seraph import CollectingSink

        def emissions(**kwargs):
            engine = build_engine(EngineConfig(**kwargs))
            sink = CollectingSink()
            engine.register(VARLEN_QUERY, sink=sink)
            engine.run_stream(self._stream())
            return [e.render() for e in sink.emissions]

        baseline = emissions(vectorized=False)
        for kwargs in [
            dict(vectorized=True),
            dict(vectorized=True, graph_backend="columnar"),
            dict(vectorized=True, delta_eval=False),
            dict(vectorized=True, physical_plans=False),
        ]:
            assert emissions(**kwargs) == baseline

    def test_checkpoint_round_trips_the_flag(self):
        from repro.runtime.checkpoint import engine_from_dict, engine_to_dict
        from repro.seraph import SeraphEngine

        engine = SeraphEngine(vectorized=True)
        restored = engine_from_dict(engine_to_dict(engine))
        assert restored.vectorized is True
        # Documents written before the knob re-derive it from the backend.
        for backend, expected in (("reference", False), ("columnar", True)):
            document = engine_to_dict(SeraphEngine(graph_backend=backend))
            del document["config"]["vectorized"]
            assert engine_from_dict(document).vectorized is expected
