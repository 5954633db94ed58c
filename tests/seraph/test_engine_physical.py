"""Engine-level physical plan integration.

Production compiles each registration's plan once, at its first full
evaluation, executes it on every evaluation it does not reuse, and
surfaces compiles / plan hit-rate / the per-operator ``PlanProfile``
through ``status()`` and ``EXPLAIN ANALYZE``.  The reference twin holds
no plan: every evaluation is ``semantics.execute_body``.
"""

import json

import pytest

from repro import EngineConfig, build_engine
from repro.graph.builder import GraphBuilder
from repro.runtime.checkpoint import engine_from_dict, engine_to_dict
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.explain import explain, explain_analyze
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

from ..modes import SLOW_TWIN, assert_equals_oracle, brute_force_run
from .test_net_change import overlapping_stream

#: Reading ``win_end`` keeps it off reuse: every evaluation runs the
#: compiled plan.  Its property map anchors a label scan.
STATION_QUERY = """
REGISTER QUERY anna_rentals STARTING AT 2022-08-01T14:45
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station {id: 1}) WITHIN PT1H
  EMIT id(b) AS bike, r.user_id AS user, win_end AS until
  SNAPSHOT EVERY PT5M
}
"""

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals
  SNAPSHOT EVERY PT5M
}
"""


SHORTEST_QUERY = """
REGISTER QUERY routes STARTING AT 2022-08-01T14:45
{
  MATCH p = shortestPath((b:Bike)-[*..4]-(s:Station)) WITHIN PT1H
  EMIT id(b) AS bike, id(s) AS station, length(p) AS hops
  SNAPSHOT EVERY PT5M
}
"""


def _run(engine, query=COUNT_QUERY):
    sink = CollectingSink()
    engine.register(query, sink=sink)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    return sink


def _counter(registered, suffix):
    return registered.counters[suffix].value


class TestEnginePlans:
    def test_one_compile_per_registration(self):
        engine = SeraphEngine()
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.physical_plan is not None
        assert _counter(registered, "plan_compiles") == 1
        stats = engine.status()["planner"]
        # 12 evaluations, every one after the first a hit on its plan.
        assert stats["misses"] == 1
        assert stats["hits"] == _counter(registered, "path.full") - 1 >= 1
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_plan_rows_accumulate(self):
        engine = SeraphEngine()
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.profile.rows  # per-operator totals collected
        assert sum(registered.profile.rows.values()) > 0

    def test_reference_matches_production(self):
        on = _run(SeraphEngine())
        off = _run(SeraphEngine(reference=True))
        assert len(on.emissions) == len(off.emissions)
        for left, right in zip(on.emissions, off.emissions):
            assert left.instant == right.instant
            assert left.table.bag_equals(right.table)

    def test_the_reference_twin_holds_no_plan(self):
        engine = SeraphEngine(reference=True)
        _run(engine)
        registered = engine.registered("rentals")
        assert registered.physical_plan is None
        assert _counter(registered, "plan_compiles") == 0
        assert _counter(registered, "path.full") == 12
        assert registered.profile.rows == {}
        planner = engine.status()["planner"]
        assert planner == {"plans": 0, "hits": 0, "misses": 0,
                           "invalidations": 0, "hit_rate": 0.0}
        assert engine.status()["queries"]["rentals"]["plan_operators"] == 0

    def test_deregister_drops_the_plan(self):
        engine = SeraphEngine()
        _run(engine)
        assert engine.status()["planner"]["plans"] == 1
        engine.deregister("rentals")
        assert engine.status()["planner"] == {
            "plans": 0, "hits": 0, "misses": 0, "invalidations": 0,
            "hit_rate": 0.0,
        }

    def test_status_planner_section(self):
        engine = SeraphEngine()
        _run(engine)
        planner = engine.status()["planner"]
        assert planner["plans"] == 1
        assert planner["invalidations"] == 0
        query_info = engine.status()["queries"]["rentals"]
        assert query_info["plan_compiles"] == 1
        assert query_info["plan_operators"] > 0
        assert "plan_failed" not in query_info  # every query has a plan


class TestPlannerLaws:
    """``status()["planner"]`` is a read of the per-query counters:
    ``misses`` = Σ compiles, ``hits + misses`` = Σ full evaluations."""

    QUERIES = (COUNT_QUERY, STATION_QUERY, SHORTEST_QUERY, LISTING5_SERAPH)

    @staticmethod
    def assert_laws(engine):
        planner = engine.status()["planner"]
        queries = [engine.registered(name) for name in engine.query_names]
        assert planner["misses"] == sum(
            _counter(registered, "plan_compiles") for registered in queries
        )
        full = sum(_counter(registered, "path.full") for registered in queries)
        assert planner["hits"] + planner["misses"] == full
        assert planner["hit_rate"] == planner["hits"] / full
        assert planner["plans"] == len(queries)
        return planner

    def test_laws_over_concurrent_queries(self):
        engine = SeraphEngine()
        for text in self.QUERIES:
            engine.register(text, sink=CollectingSink())
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        planner = self.assert_laws(engine)
        assert planner["misses"] == len(self.QUERIES)
        # A reuse tick runs no plan: it is neither a hit nor a miss.
        reused = sum(engine.status()["queries"][name]["reused"]
                     for name in engine.query_names)
        assert reused > 0
        assert planner["hits"] + planner["misses"] + reused \
            == sum(engine.status()["queries"][name]["evaluations"]
                   for name in engine.query_names)

    def test_replace_starts_a_registration_that_compiles_once(self):
        engine = SeraphEngine()
        first = engine.register(COUNT_QUERY, sink=CollectingSink())
        stream = figure1_stream()
        for element in stream[:4]:
            engine.push(element)
        assert _counter(first, "plan_compiles") == 1
        edited = COUNT_QUERY.replace("()-[r:rentedAt]->()",
                                     "(:Bike)-[r:rentedAt]->(:Station)")
        second = engine.register(edited, sink=CollectingSink(), replace=True)
        assert second.physical_plan is None
        for element in stream[4:]:
            engine.push(element)
        engine.flush(_t("15:40"))
        assert _counter(first, "plan_compiles") == 1
        assert _counter(second, "plan_compiles") == 1
        anchors = {op.detail for op in second.physical_plan.operators()
                   if op.kind == "LabelScan"}
        assert anchors & {"(:Bike)", "(:Station)"}
        assert self.assert_laws(engine)["misses"] == 1


def inverting_stream(count=16):
    """Element i holds one hub related to three spokes, all fresh nodes:
    up to the midpoint the hub is the one ``A`` and the spokes ``B``,
    after it the hub is the one ``B`` — so every ``(a:A)-[:R]->(b:B)``
    window's anchor-label ratio inverts mid-stream."""
    elements = []
    for index in range(1, count + 1):
        rare, common = ("A", "B") if index <= count // 2 else ("B", "A")
        builder = GraphBuilder()
        hub = builder.add_node([rare], {"i": index}, node_id=10 * index)
        for spoke in range(1, 4):
            other = builder.add_node([common], {"i": index},
                                     node_id=10 * index + spoke)
            src, trg = (hub, other) if rare == "A" else (other, hub)
            builder.add_relationship(src, "R", trg,
                                     rel_id=10 * index + spoke)
        elements.append(StreamElement(graph=builder.build(), instant=index))
    return elements


class TestOnePlanAcrossInvertingStatistics:
    """The trade of compiling once: a query whose label ratios invert
    keeps its first orientation — and, planning being result-free, its
    answers."""

    QUERY = """
    REGISTER QUERY inverting STARTING AT 1970-01-01T00:00:03
    {
      MATCH (a:A)-[:R]->(b:B) WITHIN PT3S
      EMIT id(a) AS a, id(b) AS b SNAPSHOT EVERY PT1S
    }
    """
    UNTIL = 16

    def test_compiles_once_and_every_instant_equals_the_oracle(self):
        engine = SeraphEngine()
        sink = CollectingSink()
        registered = engine.register(self.QUERY, sink=sink)
        engine.run_stream(inverting_stream(), until=self.UNTIL)
        assert _counter(registered, "plan_compiles") == 1
        assert _counter(registered, "path.full") == 14
        # Costed on the first window (3 A, 9 B): walked from a:A for good.
        anchor = registered.physical_plan.operators()[0]
        assert (anchor.kind, anchor.detail) == ("LabelScan", "(a:A)")
        assert all(len(emission.table) == 9 for emission in sink.emissions)
        assert_equals_oracle(sink, self.QUERY, inverting_stream(), self.UNTIL)


class TestExplainPhysical:
    def test_explain_with_graph_shows_operator_tree(self):
        from repro.usecases.micromobility import figure2_graph

        text = explain(STATION_QUERY, graph=figure2_graph())
        assert "physical    :" in text
        assert "LabelScan" in text
        assert "ExpandHop" in text

    def test_explain_without_graph_unchanged(self):
        assert "physical" not in explain(COUNT_QUERY)

    def test_explain_analyze_renders_rows(self):
        engine = build_engine(EngineConfig(observability=True))
        _run(engine, query=STATION_QUERY)
        text = explain_analyze(engine, "anna_rentals")
        assert "physical    : (1 compiles)" in text
        assert "LabelScan" in text
        assert "rows=" in text
        assert "plan_compile" in text  # the compile stage histogram

    def test_explain_analyze_of_the_reference_twin_has_no_plan(self):
        engine = build_engine(EngineConfig(observability=True, **SLOW_TWIN))
        _run(engine, query=STATION_QUERY)
        text = explain_analyze(engine, "anna_rentals")
        assert "physical    :" not in text and "rows=" not in text
        assert "match_full" in text
        assert "plan_compile" not in text

    def test_unified_status_hit_rate(self):
        engine = build_engine(EngineConfig(observability=True))
        _run(engine)
        document = engine.unified_status()
        planner = document["engine"]["planner"]
        assert planner["hit_rate"] > 0.0


class TestShortestPathProfile:
    def test_shortest_path_operator_counts_expanded_relationships(self):
        """``ShortestPath ... rows=`` is the relationships its searches
        expanded (it used to print ``rows=0`` for ever)."""
        engine = SeraphEngine()
        sink = _run(engine, query=SHORTEST_QUERY)
        assert any(len(emission.table) for emission in sink.emissions)
        plan = engine.registered("routes").physical_plan
        (op,) = [op for op in plan.operators() if op.kind == "ShortestPath"]
        expanded = engine.registered("routes").profile.rows[op.op_id]
        assert expanded > 0
        analyzed = explain_analyze(engine, "routes")
        assert f"[op {op.op_id}] rows={expanded}" in analyzed


class TestProfileOfASingleMatch:
    """A single fixed-length ``MATCH`` with no window-bound reference
    runs the compiled plan like every other query, so ``EXPLAIN
    ANALYZE`` counts its rows (it used to print ``rows=0`` on every
    operator of such a query)."""

    QUERY = """
    REGISTER QUERY chains STARTING AT 1970-01-01T00:00:08
    {
      MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WITHIN PT4S
      EMIT id(a) AS a, id(c) AS c ON ENTERING EVERY PT1S
    }
    """

    def run(self, observability):
        engine = build_engine(EngineConfig(observability=observability))
        registered = engine.register(self.QUERY)
        # The stream ends at 24: the windows from 28 on are empty, and
        # the plan compiled at 8 still runs on them.
        engine.run_stream(overlapping_stream(24), until=30)
        assert registered.counters["plan_compiles"].value == 1
        return engine, registered

    def test_the_scan_and_every_hop_count_rows(self):
        engine, registered = self.run(observability=False)
        ops = registered.physical_plan.operators()
        assert [op.kind for op in ops] \
            == ["LabelScan", "ExpandHop", "ExpandHop", "Project"]
        for op in ops:
            assert registered.profile.rows.get(op.op_id, 0) > 0, op.kind
        analyzed = explain_analyze(engine, "chains")
        for op in ops:
            assert f"[op {op.op_id}] rows={registered.profile.rows[op.op_id]}" \
                in analyzed

    def test_the_registry_counts_the_same_rows(self):
        engine, registered = self.run(observability=True)
        registry = engine.obs.registry
        analyzed = explain_analyze(engine, "chains")
        for op in registered.physical_plan.operators():
            rows = registered.profile.rows.get(op.op_id, 0)
            assert rows > 0, op.kind
            assert registry.value(f"query.chains.op.{op.op_id}.rows") == rows
            assert f"[op {op.op_id}] rows={rows}" in analyzed


class TestOnePlanPerRegistration:
    """A registration compiles exactly once, whatever its first window
    holds, and a new registration (replace, re-register, restore)
    compiles once more; queries sharing a window state compile their
    own plans."""

    def test_every_mode_and_stack_equals_the_oracle_across_an_inversion(
        self,
    ):
        from ..modes import MODES, STACKS

        query = TestOnePlanAcrossInvertingStatistics.QUERY
        for mode, compiles in (("production", 1), ("reference", 0)):
            for stack in STACKS:
                engine = build_engine(
                    EngineConfig(**MODES[mode], **STACKS[stack])
                )
                sink = CollectingSink()
                registered = engine.register(query, sink=sink)
                engine.run_stream(inverting_stream(), until=16)
                assert _counter(registered, "plan_compiles") == compiles
                assert_equals_oracle(sink, query, inverting_stream(), 16)

    def test_a_first_evaluation_on_an_empty_window_compiles_the_plan(self):
        """Starting before the stream, the first full evaluation sees an
        empty window: the plan costed on it serves every later one."""
        query = TestOnePlanAcrossInvertingStatistics.QUERY.replace(
            "00:00:03", "00:00:00"
        )
        engine = SeraphEngine()
        sink = CollectingSink()
        registered = engine.register(query, sink=sink)
        engine.run_stream(inverting_stream(), until=16)
        assert len(sink.emissions[0].table) == 0
        assert _counter(registered, "plan_compiles") == 1
        assert_equals_oracle(sink, query, inverting_stream(), 16)

    def test_deregister_then_register_compiles_again(self):
        engine = SeraphEngine()
        _run(engine)
        engine.deregister("rentals")
        registered = engine.register(COUNT_QUERY, sink=CollectingSink())
        assert registered.physical_plan is None
        engine.advance_to(_t("16:00"))
        assert _counter(registered, "plan_compiles") == 1
        assert engine.status()["planner"]["plans"] == 1

    def test_queries_sharing_a_window_compile_their_own_plans(self):
        engine = SeraphEngine()
        renamed = COUNT_QUERY.replace("QUERY rentals", "QUERY rentals2")
        for text in (COUNT_QUERY, renamed):
            engine.register(text, sink=CollectingSink())
        engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert engine.status()["shared_window_states"] == 1
        plans = [engine.registered(name).physical_plan
                 for name in ("rentals", "rentals2")]
        assert plans[0] is not plans[1]
        assert [_counter(engine.registered(name), "plan_compiles")
                for name in ("rentals", "rentals2")] == [1, 1]


@pytest.mark.parametrize("split, anchor", [
    (4, "(a:A)"),   # restored windows hold the A-rare elements only
    (8, "(a:A)"),   # elements 7-9: five A, seven B
    (12, "(b:B)"),  # elements 11-13: the ratio has inverted
])
def test_a_restore_at_any_split_compiles_once_with_a_bag_equal_tail(
    split, anchor
):
    """A restore starts a new registration: it compiles once more, on
    its own first snapshots."""
    query = TestOnePlanAcrossInvertingStatistics.QUERY
    stream = inverting_stream()
    engine = SeraphEngine()
    engine.register(query, sink=CollectingSink())
    for element in stream[:split]:
        engine.push(element)
    engine.advance_to(split)
    compiled = _counter(engine.registered("inverting"), "plan_compiles")
    tail = CollectingSink()
    restored = engine_from_dict(
        json.loads(json.dumps(engine_to_dict(engine))),
        sinks={"inverting": tail},
    )
    assert restored.registered("inverting").physical_plan is None
    for element in stream[split:]:
        restored.push(element)
    restored.flush(16)
    registered = restored.registered("inverting")
    assert _counter(registered, "plan_compiles") == compiled + 1
    assert registered.physical_plan.operators()[0].detail == anchor
    expected = brute_force_run(query, stream, 16)
    assert [e.instant for e in tail.emissions] == list(range(split + 1, 17))
    for emission in tail.emissions:
        assert emission.table.table.bag_equals(expected[emission.instant])


def _rides():
    from repro.usecases.micromobility import (
        RentalStreamConfig,
        RentalStreamGenerator,
        student_trick_query,
    )

    return student_trick_query(), RentalStreamGenerator(
        RentalStreamConfig(events=36)
    ).stream()


def _net():
    from repro.usecases.network import (
        NetworkConfig,
        NetworkStreamGenerator,
        anomalous_routes_query,
    )

    return anomalous_routes_query(), NetworkStreamGenerator(
        NetworkConfig(racks=4, routers=2, events=24)
    ).stream()


def _pole():
    from repro.usecases.pole import (
        PoleConfig,
        PoleStreamGenerator,
        crime_suspects_query,
    )

    return crime_suspects_query(), PoleStreamGenerator(PoleConfig()).stream()


@pytest.mark.parametrize("usecase", [_rides, _net, _pole],
                         ids=["rides", "net", "pole"])
def test_each_usecase_query_compiles_once_per_registration(usecase):
    """The benchmark's three queries: one compile per registration, the
    planner laws, and the reference twin's bag at every instant."""
    query, stream = usecase()
    engine = build_engine(EngineConfig(observability=True))
    sink = CollectingSink()
    registered = engine.register(query, sink=sink)
    engine.run_stream(stream)
    reference = build_engine(EngineConfig(**SLOW_TWIN))
    expected = CollectingSink()
    reference.register(query, sink=expected)
    reference.run_stream(stream)
    assert _counter(registered, "plan_compiles") == 1
    assert engine.obs.registry.value(
        f"query.{registered.name}.plan_compiles") == 1
    TestPlannerLaws.assert_laws(engine)
    assert len(sink.emissions) == len(expected.emissions) > 1
    for left, right in zip(sink.emissions, expected.emissions):
        assert left.instant == right.instant
        assert left.table.bag_equals(right.table)


class TestCompiledPatternsCompileAtPlanTime:
    def test_a_registration_compiles_each_match_pattern_once(self, monkeypatch):
        # The cache is emptied after the first evaluation: a later tick
        # that compiled (or merely looked up) a pattern would lower it
        # again and be counted.
        from repro.cypher import matcher

        lowered = []
        original = matcher._lower

        def counting(pattern, bound):
            lowered.append(pattern.render())
            return original(pattern, bound)

        monkeypatch.setattr(matcher, "_lower", counting)
        matcher._compiled.cache_clear()
        engine = SeraphEngine()
        engine.register(LISTING5_SERAPH, sink=CollectingSink())
        stream = list(figure1_stream())
        engine.ingest_element(stream[0])
        engine.advance_to(stream[0].instant)
        registered = engine.registered("student_trick")
        first = _counter(registered, "path.full")
        assert len(lowered) == 1 and first >= 1
        matcher._compiled.cache_clear()
        for instant in range(stream[0].instant, stream[0].instant + 50 * 300, 300):
            for element in stream[1:]:
                if element.instant == instant:
                    engine.ingest_element(element)
            engine.advance_to(instant)
        assert _counter(registered, "path.full") + _counter(
            registered, "path.reuse") >= 50
        assert _counter(registered, "path.full") - first >= 5
        assert len(lowered) == 1
