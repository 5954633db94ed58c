"""The compiled matcher against the brute-force oracle (``tests/oracle.py``).

Every query below runs through ``run_cypher`` (planned and unplanned), so
each of its MATCH patterns is lowered by ``cypher/matcher.py``
``compile_pattern``; on generated graphs its rows must be bag-equal to the
oracle's nested loops.  The shapes cover what the lowering special-cases:
fixed and variable-length hops (``*0..`` included), undirected hops and
self-loops, an anchor and a relationship bound by an earlier path, a
relationship list bound by an earlier MATCH, path variables on paths the
planner flips, ``$param`` and scope-dependent property maps, and names
bound to ``null`` (a node, a relationship list; the oracle does not
check a bound path variable, so that case is left to the unit tests).
"""

import pytest
from hypothesis import given, settings

from repro.cypher import parse_cypher, run_cypher

from .. import oracle
from ..cypher.test_oracle_conformance import org_graphs

AGE = 35

QUERIES = (
    "MATCH (a:Person)-[r:KNOWS]->(b) RETURN a, r, b",
    "MATCH (a)-[r]-(b) RETURN a, r, b",
    "MATCH (a)-[rs:KNOWS|MANAGES*0..]-(b) RETURN a, rs, b",
    "MATCH (a)-[rs*1..3]->(b:Company) RETURN a, rs, b",
    "MATCH (a)-[r]->(b), (b)-[s*1..2]-(c) RETURN a, r, b, s, c",
    "MATCH (a)-[r]->(b), (c)-[r]-(d) RETURN a, b, c, d",
    "MATCH (a)-[r]->(a) RETURN a, r",
    "MATCH (a)-[rs*1..2]->(b) MATCH (c)-[rs*1..2]->(d) RETURN a, b, c, d",
    "MATCH (x)-[r]->(y) MATCH (x)<-[r]-(z) RETURN x, y, z",
    "MATCH p = (a)-[*1..2]-(b:Company {name: 'ACME'}) RETURN p, a, b",
    "MATCH p = (a:Person)-[r:WORKS_AT]->(c:Company), q = (c)<-[*0..1]-(d) "
    "RETURN p, q, d",
    "MATCH (a:Person) MATCH (b {team: a.team})-[r]->(c) RETURN a, b, r, c",
    "MATCH (a {age: $age})-[r {since: 2020}]-(b) RETURN a, r, b",
    "MATCH (a)-[rs*1..2 {since: 2010}]-(b {age: $age}) RETURN a, rs, b",
    "MATCH (a)-[r]->(b) WHERE (b)-[:KNOWS]->(a) RETURN a, r, b",
    "OPTIONAL MATCH (z:Nothing) MATCH (z)-[r]->(b) RETURN z, r, b",
    "OPTIONAL MATCH ()-[zs:NOPE*1..2]->() MATCH (a)-[zs*1..2]->(b) "
    "RETURN a, b",
)


@pytest.mark.parametrize("text", QUERIES)
@settings(max_examples=25, deadline=None)
@given(graph=org_graphs())
def test_compiled_matches_equal_the_oracle(text, graph):
    expected = oracle.run_query(
        parse_cypher(text.replace("$age", str(AGE))), graph
    )
    for optimize in (True, False):
        got = run_cypher(text, graph, parameters={"age": AGE},
                         optimize=optimize)
        assert got.bag_equals(expected), (optimize, got.records,
                                          expected.records)
