"""Continuous-semantics conformance corpus.

Table-driven like the Cypher corpus, but temporal: each case registers
one continuous query over a fixed five-event stream and asserts the
complete emission sequence (instant → rows).  One case per semantic
facet: policies, window widths, slides, aggregation over time,
OPTIONAL MATCH with empty windows, one-shot RETURN, formal policy.

The fixture stream (period 60s, instants 60..300):

    t=60  : (a:User {id:1})-[:PING {n:1}]->(s:Server {id:9})
    t=120 : (a:User {id:2})-[:PING {n:2}]->(s:Server {id:9})
    t=180 : (empty period — no event)
    t=240 : (a:User {id:1})-[:PING {n:3}]->(s:Server {id:9})
    t=300 : (a:User {id:3})-[:PING {n:4}]->(s:Server {id:9})

Every case runs under both behaviours of ``tests/modes.py``
(production and the reference twin) and must equal the denotational run
(``semantics.continuous_run``) and, instant by instant, the brute-force
oracle (:mod:`tests.oracle`) on the same window snapshot.
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.stream.stream import StreamElement
from repro.stream.window import ActiveSubstreamPolicy

from ..modes import (
    MODES,
    STACKS,
    assert_equals_denotation,
    assert_equals_oracle,
    renders,
    run_mode,
)


def ping(instant, user, seq):
    builder = GraphBuilder()
    user_node = builder.add_node(["User"], {"id": user}, node_id=user)
    server = builder.add_node(["Server"], {"id": 9}, node_id=100)
    builder.add_relationship(user_node, "PING", server, {"n": seq},
                             rel_id=seq)
    return StreamElement(graph=builder.build(), instant=instant)


@pytest.fixture(scope="module")
def stream():
    return [ping(60, 1, 1), ping(120, 2, 2), ping(240, 1, 3),
            ping(300, 3, 4)]


def wrap(body):
    return ("REGISTER QUERY c STARTING AT 1970-01-01T00:01\n"
            f"{{ {body} }}")


#: (case id, body, {instant: expected rows-as-sorted-tuples}, policy)
CASES = [
    (
        "snapshot-count-wide-window",
        "MATCH ()-[p:PING]->() WITHIN PT10M "
        "EMIT count(p) AS n SNAPSHOT EVERY PT1M",
        {60: [(1,)], 120: [(2,)], 180: [(2,)], 240: [(3,)], 300: [(4,)]},
    ),
    (
        "snapshot-count-narrow-window",
        # 1-minute window: only the event arriving at ω itself.
        "MATCH ()-[p:PING]->() WITHIN PT1M "
        "EMIT count(p) AS n SNAPSHOT EVERY PT1M",
        {60: [(1,)], 120: [(1,)], 180: [(0,)], 240: [(1,)], 300: [(1,)]},
    ),
    (
        "on-entering-users",
        "MATCH (u:User)-[:PING]->() WITHIN PT10M "
        "EMIT u.id AS user ON ENTERING EVERY PT1M",
        # User 1 pings twice: the second match is a new tuple (bag!).
        {60: [(1,)], 120: [(2,)], 180: [], 240: [(1,)], 300: [(3,)]},
    ),
    (
        "on-entering-distinct-users",
        "MATCH (u:User)-[:PING]->() WITHIN PT10M "
        "WITH DISTINCT u.id AS user "
        "EMIT user ON ENTERING EVERY PT1M",
        # DISTINCT collapses user 1's second ping: nothing new at 240.
        {60: [(1,)], 120: [(2,)], 180: [], 240: [], 300: [(3,)]},
    ),
    (
        "on-exiting-expiry",
        # 2-minute window: each ping leaves two minutes after arriving.
        "MATCH (u:User)-[:PING]->() WITHIN PT2M "
        "EMIT u.id AS user ON EXITING EVERY PT1M",
        {60: [], 120: [], 180: [(1,)], 240: [(2,)], 300: [],
         360: [(1,)], 420: [(3,)]},
    ),
    (
        "every-two-minutes",
        "MATCH ()-[p:PING]->() WITHIN PT10M "
        "EMIT count(p) AS n SNAPSHOT EVERY PT2M",
        # Evaluations at 60, 180, 300 only.
        {60: [(1,)], 180: [(2,)], 300: [(4,)]},
    ),
    (
        "grouped-aggregation-over-time",
        "MATCH (u:User)-[p:PING]->() WITHIN PT10M "
        "EMIT u.id AS user, count(p) AS pings ON ENTERING EVERY PT1M",
        # Group rows change as counts grow: user 1's row enters at 60 as
        # (pings=1,user=1); at 240 it becomes (pings=2,user=1) — a new
        # tuple — while the old one exits silently.  Tuples below are in
        # sorted-field order: (pings, user).
        {60: [(1, 1)], 120: [(1, 2)], 180: [], 240: [(2, 1)],
         300: [(1, 3)]},
    ),
    (
        "optional-match-empty-window",
        "OPTIONAL MATCH (u:User)-[:PING]->() WITHIN PT1M "
        "EMIT coalesce(u.id, -1) AS user SNAPSHOT EVERY PT3M",
        # At 180 the 1-minute window is empty → the null row.
        {60: [(1,)], 240: [(1,)], 420: [(-1,)]},
    ),
]


BY_CASE = pytest.mark.parametrize(
    "case_id,body,expected", CASES, ids=[c[0] for c in CASES],
)


@pytest.mark.parametrize("mode", MODES)
@BY_CASE
def test_continuous_conformance(stream, case_id, body, expected, mode):
    until = max(expected)
    sink = run_mode(mode, wrap(body), stream, until)
    assert_equals_denotation(sink, wrap(body), stream, until)
    actual = {
        emission.instant: sorted(
            tuple(record[name] for name in sorted(record))
            for record in emission.table
        )
        for emission in sink.emissions
    }
    for instant, rows in expected.items():
        assert actual.get(instant) == sorted(rows), (
            f"{case_id} @ {instant}: expected {sorted(rows)}, "
            f"got {actual.get(instant)}"
        )


@pytest.mark.parametrize("hoist", [True, False])
@BY_CASE
def test_every_case_compiles_to_a_plan(stream, case_id, body, expected, hoist):
    """Compile totality: every corpus query lowers to a physical plan,
    hoisted and un-hoisted, and the plan computes — row for row — what
    the reference pipeline does on the same snapshot."""
    from repro.cypher.physical import compile_query, execute_plan
    from repro.seraph.parser import parse_seraph
    from repro.seraph.semantics import execute_body
    from repro.stream.snapshot import snapshot_graph
    from repro.stream.timeline import TimeInterval

    query = parse_seraph(wrap(body))
    graph = snapshot_graph(stream)
    interval = TimeInterval(0, 600)
    plan = compile_query(query, lambda _s, _w: graph, hoist=hoist)
    table = execute_plan(plan, lambda _s, _w: graph, interval)
    reference = execute_body(query, lambda _s, _w: graph, interval)
    if hoist:
        assert table.bag_equals(reference)
    else:
        assert list(table.records) == list(reference.records)


@pytest.mark.parametrize("mode", MODES)
@BY_CASE
def test_every_instant_equals_the_brute_force_oracle(
    stream, case_id, body, expected, mode
):
    until = max(expected)
    sink = run_mode(mode, wrap(body), stream, until)
    assert_equals_oracle(sink, wrap(body), stream, until)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stack", [s for s in STACKS if s != "plain"])
@BY_CASE
def test_every_stack_equals_the_denotation_and_the_plain_engine(
    stream, case_id, body, expected, stack, mode
):
    until = max(expected)
    sink = run_mode(mode, wrap(body), stream, until, stack=stack)
    assert_equals_denotation(sink, wrap(body), stream, until)
    assert renders(sink) == renders(
        run_mode(mode, wrap(body), stream, until)
    )


@pytest.mark.parametrize("mode", MODES)
class TestOneShot:
    def test_return_terminal_fires_once(self, stream, mode):
        sink = run_mode(
            mode,
            "REGISTER QUERY once STARTING AT 1970-01-01T00:04\n"
            "{ MATCH ()-[p:PING]->() WITHIN PT10M RETURN count(p) AS n }",
            stream, 600,
        )
        assert len(sink.emissions) == 1
        assert sink.emissions[0].instant == 240
        assert sink.emissions[0].table.table.records[0]["n"] == 3


FORMAL = ActiveSubstreamPolicy.EARLIEST_CONTAINING
FORMAL_COUNT = wrap("MATCH ()-[p:PING]->() WITHIN PT10M "
                    "EMIT count(p) AS n SNAPSHOT EVERY PT1M")


@pytest.mark.parametrize("mode", MODES)
class TestFormalPolicyConformance:
    def test_formal_window_annotation(self, stream, mode):
        """Under EARLIEST_CONTAINING the reported window is the earliest
        Def-5.9 window containing ω (here always the first window, since
        the width far exceeds the horizon)."""
        sink = run_mode(mode, FORMAL_COUNT, stream, 300, policy=FORMAL)
        assert_equals_denotation(sink, FORMAL_COUNT, stream, 300, FORMAL)
        for emission in sink.emissions:
            assert emission.table.win_start == 60  # ω₀
            assert emission.table.win_end == 60 + 600

    def test_formal_counts_clip_to_arrivals(self, stream, mode):
        sink = run_mode(mode, FORMAL_COUNT, stream, 300, policy=FORMAL)
        counts = [emission.table.table.records[0]["n"]
                  for emission in sink.emissions]
        assert counts == [1, 2, 2, 3, 4]
