"""Production and the reference twin against the brute-force oracle.

Every MATCH case of the conformance corpus (``test_conformance.CASES``)
runs three ways — the production engine, the reference twin (each as a
RETURN-terminal Seraph query over a one-element stream holding the
graph) and the one-shot evaluator (``run_cypher``) — and each must be
bag-equal to :mod:`tests.oracle`, which enumerates assignments by nested
loops and shares no matching or expression code with them.  On the
fixture graph the oracle must also reproduce the corpus's expected rows;
on generated graphs of up to eight nodes nothing is known in advance but
the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, build_engine
from repro.cypher import ast, parse_cypher, run_cypher
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.seraph import CollectingSink
from repro.seraph.ast import SeraphMatch, SeraphQuery

from .. import oracle
from ..modes import MODES
from .test_conformance import CASES, expected_table

MATCH_CASES = [case for case in CASES if "MATCH" in case[1]]
#: The instant of the one stream element, and the WITHIN that holds it.
INSTANT, WITHIN = 60, 3600
RUNNERS = (*MODES, "oneshot")
BY_CASE_AND_RUNNER = pytest.mark.parametrize(
    "case_id,query,runner",
    [(case_id, query, runner) for case_id, query, _ in MATCH_CASES
     for runner in RUNNERS],
    ids=[f"{case_id}-{runner}" for case_id, _, _ in MATCH_CASES
         for runner in RUNNERS],
)


def as_seraph(part: ast.SingleQuery) -> SeraphQuery:
    *body, final = part.clauses
    return SeraphQuery(
        name="q", starting_at=INSTANT,
        body=tuple(SeraphMatch(match=clause, within=WITHIN)
                   if isinstance(clause, ast.Match) else clause
                   for clause in body),
        final_return=final,
    )


def run(runner: str, query: ast.Query, graph: PropertyGraph):
    """The query's table from one production path.  The engines take no
    UNION, so each part runs as its own query and the parts combine as
    the oracle combines its own."""
    if runner == "oneshot":
        return run_cypher(query, graph)
    tables = []
    for part in query.parts:
        engine = build_engine(EngineConfig(**MODES[runner]))
        sink = CollectingSink()
        engine.register(as_seraph(part), sink=sink)
        engine.ingest(graph, INSTANT)
        engine.advance_to(INSTANT)
        (emission,) = sink.emissions
        tables.append(emission.table.table)
    return oracle.union(tables, query.union_all)


def assert_agrees(runner, query_text, graph):
    query = parse_cypher(query_text)
    expected = oracle.run_query(query, graph)
    actual = run(runner, query, graph)
    assert actual.bag_equals(expected), (
        f"{runner}: {sorted(map(repr, actual))} != oracle "
        f"{sorted(map(repr, expected))}"
    )
    return expected


@BY_CASE_AND_RUNNER
def test_fixture_graph_agrees_with_the_oracle(graph, case_id, query, runner):
    expected = assert_agrees(runner, query, graph)
    corpus = dict((case[0], case[2]) for case in CASES)[case_id]
    assert expected.bag_equals(expected_table(corpus)), case_id


NAMES = ("alice", "bob", "carol", "dave", "ACME")


@st.composite
def org_graphs(draw):
    """Up to eight nodes over the fixture's labels, properties and
    relationship types; self-loops and parallel relationships
    included."""
    count = draw(st.integers(1, 8))
    nodes = []
    for node_id in range(1, count + 1):
        labels = draw(st.sampled_from(
            [("Person",), ("Person", "Admin"), ("Company",), ()]))
        properties = {}
        for name, values in (("name", NAMES), ("age", (25, 35, 45)),
                             ("team", ("core", "web"))):
            value = draw(st.sampled_from((None,) + values))
            if value is not None:
                properties[name] = value
        nodes.append(Node(id=node_id, labels=labels, properties=properties))
    rels = []
    for rel_id in range(1, draw(st.integers(0, 10)) + 1):
        since = draw(st.sampled_from((None, 2010, 2020)))
        rels.append(Relationship(
            id=rel_id,
            type=draw(st.sampled_from(("WORKS_AT", "MANAGES", "KNOWS"))),
            src=draw(st.integers(1, count)),
            trg=draw(st.integers(1, count)),
            properties={} if since is None else {"since": since},
        ))
    return PropertyGraph.of(nodes, rels)


@BY_CASE_AND_RUNNER
@settings(max_examples=15, deadline=None)
@given(generated=org_graphs())
def test_generated_graphs_agree_with_the_oracle(case_id, query, runner,
                                                generated):
    assert_agrees(runner, query, generated)
