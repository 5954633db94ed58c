"""``shortestPath`` / ``allShortestPaths`` against an oracle that is not
the code under test.

The set-at-a-time shortest-path operator (``cypher/matcher.py``
``_shortest``) is checked against rows *derived* from the plain
variable-length match ``(a)-[rs*l..h]-(b)`` — a different routine
(``_trail_ends``: a depth-first enumeration of every trail) — grouped per
``(a, b)`` by minimum length.  Same rows, same order (start-major, end-minor, both in global node
order), same picked path (smallest relationship-id sequence as the pattern
is written).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.matcher import PatternMatcher
from repro.cypher.parser import CypherParser
from repro.graph.model import Node, PropertyGraph, Relationship


@st.composite
def multigraphs(draw):
    """Small multigraphs: parallel relationships, self-loops, two
    relationship types, isolated nodes, two labels, one property."""
    order = draw(st.integers(min_value=1, max_value=5))
    nodes = [
        (
            node_id,
            draw(st.sets(st.sampled_from(["A", "B"]))),
            draw(st.integers(min_value=0, max_value=1)),
        )
        for node_id in range(1, order + 1)
    ]
    ends = st.integers(min_value=1, max_value=order)
    rels = draw(st.lists(
        st.tuples(ends, ends, st.sampled_from(["R", "S"])), max_size=7
    ))
    return nodes, rels


def build(spec):
    nodes, rels = spec
    return PropertyGraph.of(
        [Node(node_id, labels, {"k": k}) for node_id, labels, k in nodes],
        [
            Relationship(rel_id, rel_type, src, trg)
            for rel_id, (src, trg, rel_type) in enumerate(rels, start=1)
        ],
    )


@st.composite
def shortest_patterns(draw):
    """``(function, start filter, relationship detail, arrows, end filter)``."""
    low = draw(st.sampled_from([None, 0, 1, 2, 3]))
    high = draw(st.sampled_from([None, 1, 2, 3, 4]))
    if low is None and high is None:
        bounds = "*"
    else:
        bounds = f"*{'' if low is None else low}..{'' if high is None else high}"
    node_filter = st.sampled_from(["", ":A", ":B", " {k: 0}", ":A {k: 1}"])
    return (
        draw(st.sampled_from(["shortestPath", "allShortestPaths"])),
        draw(node_filter),
        draw(st.sampled_from(["", ":R", ":S", ":R|S"])) + bounds,
        draw(st.sampled_from([("-", "->"), ("<-", "-"), ("-", "-")])),
        draw(node_filter),
    )


def match(graph, text):
    pattern = CypherParser(text).parse_pattern()
    return list(
        PatternMatcher(graph, ExpressionEvaluator(graph)).match_pattern(pattern, {})
    )


def row_key(row):
    return (
        row["a"].id, row["b"].id, [rel.id for rel in row["rs"]],
        [node.id for node in row["p"].nodes],
        [rel.id for rel in row["p"].relationships],
    )


def derived_rows(graph, function, body):
    """What shortestPath must return, from the plain variable-length
    match of the same body."""
    position = {node_id: index for index, node_id in enumerate(graph.nodes)}
    groups = {}
    for row in match(graph, f"p = {body}"):
        groups.setdefault((row["a"].id, row["b"].id), []).append(row)
    expected = []
    for pair in sorted(groups, key=lambda ids: (position[ids[0]], position[ids[1]])):
        shortest = min(len(row["rs"]) for row in groups[pair])
        ties = sorted(
            (row_key(row) for row in groups[pair] if len(row["rs"]) == shortest),
            key=lambda key: key[2],
        )
        expected.extend(ties if function == "allShortestPaths" else ties[:1])
    return expected


@given(spec=multigraphs(), shape=shortest_patterns())
@settings(max_examples=250, deadline=None)
def test_shortest_rows_equal_rows_derived_from_the_variable_length_match(
    spec, shape
):
    function, start_filter, detail, (left, right), end_filter = shape
    graph = build(spec)
    body = f"(a{start_filter}){left}[rs{detail}]{right}(b{end_filter})"
    actual = [row_key(row) for row in match(graph, f"p = {function}({body})")]
    assert actual == derived_rows(graph, function, body)
