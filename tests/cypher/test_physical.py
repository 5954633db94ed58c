"""Unit tests for physical plan compilation and execution.

The contract under test: ``execute_plan(compile_query(q, stats), ...)``
produces the *byte-identical* table :func:`semantics.execute_body`
would on the snapshot it was costed on, and the same bag on any other
snapshot (planning fixes enumeration order, never results), for every
query ``register()`` accepts; a (hand-built) body clause no stage models
is a typed SeraphSemanticError instead of a guess.
"""

import pickle

import pytest

from repro.cypher.physical import (
    PhysicalPlan,
    PlanProfile,
    compile_query,
    execute_plan,
    render_plan,
)
from repro.errors import SeraphSemanticError
from repro.graph.builder import GraphBuilder
from repro.seraph import semantics
from repro.seraph.parser import parse_seraph
from repro.stream.timeline import TimeInterval


def _graph():
    builder = GraphBuilder()
    people = [
        builder.add_node(["Person"], {"name": f"p{i}", "age": 20 + i},
                         node_id=i + 1)
        for i in range(8)
    ]
    city = builder.add_node(["City"], {"name": "Rome"}, node_id=100)
    for index, person in enumerate(people):
        builder.add_relationship(person, "LIVES_IN", city, rel_id=index + 1)
    for left, right in zip(people, people[1:]):
        builder.add_relationship(left, "KNOWS", right,
                                 rel_id=100 + left)
    return builder.build()


def _compile(text, graph):
    return compile_query(parse_seraph(text), lambda _s, _w: graph)


def _both(text, graph, lo=0, hi=100):
    query = parse_seraph(text)
    interval = TimeInterval(lo, hi)
    plan = compile_query(query, lambda _s, _w: graph)
    physical = execute_plan(plan, lambda _s, _w: graph, interval)
    interpreted = semantics.execute_body(
        query, lambda _s, _w: graph, interval
    )
    return plan, physical, interpreted


def _profiled(plan, graph, **options):
    profile = PlanProfile()
    table = execute_plan(plan, lambda _s, _w: graph, TimeInterval(0, 100),
                         profile=profile, **options)
    return table, profile


def _unsupported_query():
    """A structurally valid SeraphQuery with a mid-body clause no stage
    models (a bare Return)."""
    import dataclasses

    from repro.seraph.semantics import terminal_clause

    query = parse_seraph(SIMPLE)
    return dataclasses.replace(
        query, body=query.body + (terminal_clause(query),)
    )


SIMPLE = """
REGISTER QUERY q STARTING AT 2024-01-01T00:00h
{
  MATCH (p:Person {name: 'p3'})-[:LIVES_IN]->(c:City)
  WITHIN PT10S
  EMIT p.age AS age, c.name AS city
  SNAPSHOT EVERY PT10S
}
"""

PIPELINE = """
REGISTER QUERY q STARTING AT 2024-01-01T00:00h
{
  MATCH (a:Person)-[:KNOWS]->(b:Person)
  WITHIN PT10S
  WHERE a.age < 25
  WITH a, count(b) AS friends
  EMIT a.name AS name, friends
  SNAPSHOT EVERY PT10S
}
"""


class TestCompilation:
    def test_property_map_anchor_is_a_label_scan(self):
        plan = _compile(SIMPLE, _graph())
        kinds = [op.kind for op in plan.operators()]
        assert kinds == ["LabelScan", "ExpandHop", "Project"]
        assert plan.operators()[0].detail == "(p:Person {name: 'p3'})"

    def test_label_scan_without_property_map(self):
        plan = _compile(PIPELINE, _graph())
        kinds = {op.kind for op in plan.operators()}
        assert "LabelScan" in kinds
        assert "Filter" in kinds and "Aggregate" in kinds

    def test_op_ids_are_dense_and_unique(self):
        plan = _compile(PIPELINE, _graph())
        ids = [op.op_id for op in plan.operators()]
        assert ids == list(range(plan.op_count))

    def test_unsupported_clause_raises(self):
        # The Seraph surface grammar cannot produce an unsupported body
        # clause, but programmatically-built queries can (e.g. a Return
        # mid-body); the compiler must refuse rather than guess.
        with pytest.raises(SeraphSemanticError):
            compile_query(_unsupported_query(), lambda _s, _w: _graph())

    def test_registration_rejects_what_cannot_compile(self):
        """Compile totality, engine side: no registered query lacks a
        plan, so the refusal happens at ``register()`` — with or without
        the semantic validation pass — and leaves nothing behind."""
        from repro.seraph import SeraphEngine

        for reference in (False, True):
            engine = SeraphEngine(reference=reference)
            for validate in (True, False):
                with pytest.raises(SeraphSemanticError):
                    engine.register(_unsupported_query(), validate=validate)
            assert engine.query_names == []

    def test_plan_is_picklable(self):
        plan = _compile(PIPELINE, _graph())
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, PhysicalPlan)
        assert render_plan(clone) == render_plan(plan)
        table = execute_plan(
            clone, lambda _s, _w: _graph(), TimeInterval(0, 100)
        )
        assert table == execute_plan(
            plan, lambda _s, _w: _graph(), TimeInterval(0, 100)
        )


class TestExecution:
    @pytest.mark.parametrize("text", [SIMPLE, PIPELINE])
    def test_identical_to_interpreted(self, text):
        _plan, physical, interpreted = _both(text, _graph())
        assert physical == interpreted
        assert list(physical.records) == list(interpreted.records)

    def test_anchor_scan_counts_every_candidate(self):
        graph = _graph()
        plan = _compile(SIMPLE, graph)
        _table, profile = _profiled(plan, graph)
        stage = plan.stages[0]
        assert profile.rows[stage.ops[(0, -1)]] == 8  # every Person
        assert profile.rows[stage.ops[(0, 0)]] == 1  # p3's one LIVES_IN

    def test_list_anchor_value_matches_interpreted(self):
        text = SIMPLE.replace("'p3'", "[1, 2]")
        _plan, physical, interpreted = _both(text, _graph())
        assert physical == interpreted
        assert len(physical) == 0  # no Person.name equals a list

    def test_null_anchor_value_matches_interpreted(self):
        text = SIMPLE.replace("'p3'", "null")
        _plan, physical, interpreted = _both(text, _graph())
        assert physical == interpreted

    def test_row_counts_flow_through_projection(self):
        graph = _graph()
        plan = _compile(PIPELINE, graph)
        _table, profile = _profiled(plan, graph)
        rows = profile.rows
        stage = plan.stages[0]
        aggregate = plan.stages[1]  # the WITH ... count(b) stage
        project = plan.stages[-1]  # the EMIT terminal
        assert rows[stage.ops[(0, 0)]] == 7  # KNOWS chain
        assert rows[stage.ops["filter"]] < rows[stage.ops[(0, 0)]]
        assert rows[aggregate.ops["aggregate"]] > 0
        assert rows[project.ops["project"]] == rows[aggregate.ops["aggregate"]]

    def test_render_plan_includes_rows(self):
        graph = _graph()
        plan = _compile(SIMPLE, graph)
        _table, profile = _profiled(plan, graph)
        rendered = render_plan(plan, profile)
        assert "LabelScan" in rendered
        assert "rows=" in rendered
        assert "[op 0]" in rendered


class TestOnePlanForEverySnapshot:
    """The engine compiles a plan once, on its registration's first full
    evaluation, and runs it on every later snapshot: a plan costed on one
    graph computes the reference bag on any other."""

    QUERY = """
    REGISTER QUERY q STARTING AT 2024-01-01T00:00h
    {
      MATCH (a:A)-[:R]->(b:B)
      WITHIN PT10S
      EMIT id(a) AS a, id(b) AS b
      SNAPSHOT EVERY PT10S
    }
    """

    @staticmethod
    def _skewed(rare, common):
        """One ``rare`` node, four ``common`` ones, every rare-common
        pair related ``(:A)-[:R]->(:B)``."""
        builder = GraphBuilder()
        hub = builder.add_node([rare], {}, node_id=1)
        for node_id in range(2, 6):
            other = builder.add_node([common], {}, node_id=node_id)
            src, trg = (hub, other) if rare == "A" else (other, hub)
            builder.add_relationship(src, "R", trg, rel_id=node_id)
        return builder.build()

    def test_orientation_follows_the_compile_snapshot(self):
        few_a, few_b = self._skewed("A", "B"), self._skewed("B", "A")
        assert _compile(self.QUERY, few_a).operators()[0].detail == "(a:A)"
        assert _compile(self.QUERY, few_b).operators()[0].detail == "(b:B)"

    SHAPES = {
        "path": QUERY,
        "join": QUERY.replace(
            "MATCH (a:A)-[:R]->(b:B)", "MATCH (c:A)-[:R]->(b:B), (a:A)-->(b)"
        ),
        "var_length": QUERY.replace("-[:R]->", "-[:R*1..2]-"),
        "optional": QUERY.replace(
            "MATCH (a:A)-[:R]->(b:B)",
            "MATCH (a:A) WITHIN PT10S OPTIONAL MATCH (a)-[:R]->(b:B)",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_plan_costed_on_one_graph_is_exact_on_another(self, shape):
        few_a, few_b = self._skewed("A", "B"), self._skewed("B", "A")
        query = parse_seraph(self.SHAPES[shape])
        rows = 0
        for costed_on in (few_a, few_b):
            plan = compile_query(query, lambda _s, _w: costed_on)
            for graph in (few_a, few_b):
                physical = execute_plan(
                    plan, lambda _s, _w: graph, TimeInterval(0, 100)
                )
                interpreted = semantics.execute_body(
                    query, lambda _s, _w: graph, TimeInterval(0, 100)
                )
                assert physical.bag_equals(interpreted)
                rows += len(physical)
        assert rows >= 8


VARLEN_QUERY = """
REGISTER QUERY q STARTING AT 1970-01-01T00:00h
{
  MATCH (a:Hot)-[*1..2]->(b:N {flag: true})
  WITHIN PT10S
  EMIT id(a) AS a, id(b) AS b
  SNAPSHOT EVERY PT10S
}
"""


def test_var_length_rows_count_expanded_before_filtering():
    from repro.graph.model import Node, PropertyGraph, Relationship

    graph = PropertyGraph.of(
        [Node(id=i, labels=frozenset(["N", "Hot"] if i % 3 == 0 else ["N"]),
              properties={"flag": i % 3 == 0}) for i in range(12)],
        [Relationship(id=100 + i, type="R", src=i, trg=(i + 1) % 12,
                      properties={}) for i in range(12)],
    )
    plan = compile_query(parse_seraph(VARLEN_QUERY), lambda _s, _w: graph)
    profile = PlanProfile()
    table = execute_plan(plan, lambda _s, _w: graph, TimeInterval(0, 100),
                         profile=profile)
    expanded = profile.rows[plan.stages[0].ops[(0, 0)]]
    # Every hop-1 and hop-2 expansion is accounted, not just the ones
    # whose terminal node passes the (b:N {flag: true}) filter.
    assert expanded == 8  # 4 Hot starts x 2 depths x 1 neighbour
    assert len(table) < expanded
