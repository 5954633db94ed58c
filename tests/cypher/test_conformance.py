"""openCypher-TCK-inspired conformance corpus.

Table-driven: each case is (query, expected rows as bags) over a shared
fixture graph (``conftest.graph``), exercising one small, documented slice of the language.
Complements the unit tests with breadth; failures point directly at the
deviating construct.
"""

import pytest

from repro.cypher import run_cypher
from repro.graph.table import Record, Table
from repro.graph.values import NULL


#: (case id, query, expected list of row dicts — compared as bags)
CASES = [
    # --- node matching ------------------------------------------------------
    ("match-all-nodes",
     "MATCH (n) RETURN count(*) AS n",
     [{"n": 5}]),
    ("match-label",
     "MATCH (n:Person) RETURN count(*) AS n",
     [{"n": 4}]),
    ("match-two-labels",
     "MATCH (n:Person:Admin) RETURN n.name AS name",
     [{"name": "alice"}]),
    ("match-property",
     "MATCH (n {age: 25}) RETURN count(*) AS n",
     [{"n": 2}]),
    ("match-label-and-property",
     "MATCH (n:Person {team: 'web'}) RETURN n.name AS name",
     [{"name": "carol"}]),
    # --- relationship matching ------------------------------------------------
    ("match-directed",
     "MATCH (:Person)-[:WORKS_AT]->(:Company) RETURN count(*) AS n",
     [{"n": 2}]),
    ("match-wrong-direction",
     "MATCH (:Company)-[:WORKS_AT]->(:Person) RETURN count(*) AS n",
     [{"n": 0}]),
    ("match-undirected",
     "MATCH (:Person)-[:KNOWS]-(:Person) RETURN count(*) AS n",
     [{"n": 4}]),  # 2 edges × 2 orientations
    ("match-type-disjunction",
     "MATCH ()-[r:MANAGES|KNOWS]->() RETURN count(r) AS n",
     [{"n": 4}]),
    ("match-rel-property",
     "MATCH ()-[r:WORKS_AT {since: 2010}]->() RETURN count(r) AS n",
     [{"n": 1}]),
    ("match-chain",
     "MATCH (a)-[:MANAGES]->(b)-[:KNOWS]->(c) "
     "RETURN a.name AS a, c.name AS c",
     [{"a": "alice", "c": "carol"}]),
    # --- var-length ---------------------------------------------------------------
    ("var-length-exact",
     "MATCH (a {name:'alice'})-[*2]->(c) RETURN c.name AS name",
     [{"name": "carol"}, {"name": "ACME"}]),  # via MANAGES→KNOWS / →WORKS_AT
    ("var-length-range",
     "MATCH (a {name:'alice'})-[*1..2]->(c) RETURN count(*) AS n",
     [{"n": 4}]),  # bob, acme (1 hop); carol, acme-via? no: bob->carol, bob? 2-hop: carol + nothing else
    ("var-length-zero",
     "MATCH (a {name:'bob'})-[*0..1]->(c) RETURN count(*) AS n",
     [{"n": 3}]),  # bob itself + carol + acme
    # --- optional match -----------------------------------------------------------
    ("optional-hit",
     "MATCH (a {name:'alice'}) OPTIONAL MATCH (a)-[:MANAGES]->(b) "
     "RETURN b.name AS name",
     [{"name": "bob"}]),
    ("optional-miss",
     "MATCH (a {name:'dave'}) OPTIONAL MATCH (a)-[:MANAGES]->(b) "
     "RETURN b AS b",
     [{"b": NULL}]),
    # --- WHERE --------------------------------------------------------------------
    ("where-comparison",
     "MATCH (n:Person) WHERE n.age > 30 RETURN count(*) AS n",
     [{"n": 2}]),
    ("where-and-or",
     "MATCH (n:Person) WHERE n.age > 30 AND n.team = 'core' "
     "RETURN n.name AS name",
     [{"name": "alice"}]),
    ("where-in",
     "MATCH (n:Person) WHERE n.name IN ['bob', 'dave'] "
     "RETURN count(*) AS n",
     [{"n": 2}]),
    ("where-null-dropped",
     "MATCH (n:Person) WHERE n.team = 'core' RETURN count(*) AS n",
     [{"n": 2}]),  # dave (no team) is unknown, dropped
    ("where-is-null",
     "MATCH (n:Person) WHERE n.team IS NULL RETURN n.name AS name",
     [{"name": "dave"}]),
    ("where-not",
     "MATCH (n:Person) WHERE NOT n.age = 25 RETURN count(*) AS n",
     [{"n": 2}]),
    ("where-pattern",
     "MATCH (n:Person) WHERE (n)-[:WORKS_AT]->() RETURN count(*) AS n",
     [{"n": 2}]),
    ("where-chained-comparison",
     "MATCH (n:Person) WHERE 25 <= n.age < 45 RETURN count(*) AS n",
     [{"n": 3}]),
    # --- projection ---------------------------------------------------------------
    ("return-expression",
     "MATCH (n {name:'alice'}) RETURN n.age * 2 AS double",
     [{"double": 70}]),
    ("return-distinct",
     "MATCH (n:Person) RETURN DISTINCT n.age AS age",
     [{"age": 25}, {"age": 35}, {"age": 45}]),
    ("return-order-skip-limit",
     "MATCH (n:Person) RETURN n.name AS name ORDER BY name SKIP 1 LIMIT 2",
     [{"name": "bob"}, {"name": "carol"}]),
    ("return-order-desc",
     "MATCH (n:Person) RETURN n.age AS age ORDER BY age DESC LIMIT 1",
     [{"age": 45}]),
    ("with-filter",
     "MATCH (n:Person) WITH n.age AS age WHERE age < 30 "
     "RETURN count(*) AS n",
     [{"n": 2}]),
    ("with-chained-match",
     "MATCH (a {name:'alice'})-[:MANAGES]->(b) WITH b "
     "MATCH (b)-[:KNOWS]->(c) RETURN c.name AS name",
     [{"name": "carol"}]),
    # --- aggregation ----------------------------------------------------------------
    ("agg-global",
     "MATCH (n:Person) RETURN min(n.age) AS lo, max(n.age) AS hi, "
     "sum(n.age) AS total",
     [{"lo": 25, "hi": 45, "total": 130}]),
    ("agg-grouped",
     "MATCH (n:Person) RETURN n.age AS age, count(*) AS c",
     [{"age": 25, "c": 2}, {"age": 35, "c": 1}, {"age": 45, "c": 1}]),
    ("agg-count-property-skips-null",
     "MATCH (n:Person) RETURN count(n.team) AS with_team",
     [{"with_team": 3}]),
    ("agg-collect",
     "MATCH (n:Person) WHERE n.age = 25 WITH n.name AS name ORDER BY name "
     "RETURN collect(name) AS names",
     [{"names": ["bob", "dave"]}]),
    ("agg-avg-grouped-by-team",
     "MATCH (n:Person) WHERE n.team IS NOT NULL "
     "RETURN n.team AS team, avg(n.age) AS mean ORDER BY team",
     [{"team": "core", "mean": 30.0}, {"team": "web", "mean": 45.0}]),
    # --- UNWIND & lists ---------------------------------------------------------------
    ("unwind-literal",
     "UNWIND [1, 2, 2] AS x RETURN sum(x) AS s",
     [{"s": 5}]),
    ("unwind-range",
     "UNWIND range(1, 4) AS x WITH x WHERE x % 2 = 0 "
     "RETURN collect(x) AS evens",
     [{"evens": [2, 4]}]),
    ("list-comprehension",
     "MATCH (n:Person) WITH n.name AS name ORDER BY name "
     "WITH collect(name) AS names "
     "RETURN [x IN names WHERE x STARTS WITH 'b' | toUpper(x)] AS bs",
     [{"bs": ["BOB"]}]),
    ("list-index-slice",
     "WITH [10, 20, 30, 40] AS xs "
     "RETURN xs[0] AS first, xs[-1] AS last, xs[1..3] AS mid",
     [{"first": 10, "last": 40, "mid": [20, 30]}]),
    # --- paths --------------------------------------------------------------------------
    ("path-length",
     "MATCH p = (a {name:'alice'})-[:MANAGES]->(b) RETURN length(p) AS l",
     [{"l": 1}]),
    ("path-functions",
     "MATCH p = (a {name:'alice'})-[:MANAGES|KNOWS*2]->(c) "
     "RETURN size(nodes(p)) AS n, size(relationships(p)) AS r",
     [{"n": 3, "r": 2}]),
    ("shortest-path",
     "MATCH p = shortestPath((a {name:'alice'})-[*..4]->(c {name:'carol'})) "
     "RETURN length(p) AS l",
     [{"l": 2}]),
    # --- UNION --------------------------------------------------------------------------
    ("union-distinct",
     "MATCH (n:Admin) RETURN n.name AS name "
     "UNION MATCH (n {age: 35}) RETURN n.name AS name",
     [{"name": "alice"}]),
    ("union-all",
     "MATCH (n:Admin) RETURN n.name AS name "
     "UNION ALL MATCH (n {age: 35}) RETURN n.name AS name",
     [{"name": "alice"}, {"name": "alice"}]),
    # --- functions ------------------------------------------------------------------------
    ("fn-id-type-labels",
     "MATCH (a {name:'alice'})-[r:WORKS_AT]->(c) "
     "RETURN type(r) AS t, 'Company' IN labels(c) AS is_company",
     [{"t": "WORKS_AT", "is_company": True}]),
    ("fn-coalesce",
     "MATCH (n {name:'dave'}) RETURN coalesce(n.team, 'unassigned') AS team",
     [{"team": "unassigned"}]),
    ("fn-case",
     "MATCH (n:Person) RETURN CASE WHEN n.age >= 40 THEN 'senior' "
     "ELSE 'junior' END AS grade, count(*) AS c",
     [{"grade": "junior", "c": 3}, {"grade": "senior", "c": 1}]),
    ("fn-keys-properties",
     "MATCH (n {name:'dave'}) RETURN keys(n) AS ks",
     [{"ks": ["age", "name"]}]),
    # --- three-valued logic edge cases -------------------------------------------------------
    ("3vl-null-arithmetic",
     "RETURN 1 + null AS x, null * 2 AS y",
     [{"x": NULL, "y": NULL}]),
    ("3vl-or-true-dominates",
     "RETURN true OR null AS x, false OR null AS y",
     [{"x": True, "y": NULL}]),
    ("3vl-in-with-null",
     "RETURN 1 IN [1, null] AS hit, 2 IN [1, null] AS miss",
     [{"hit": True, "miss": NULL}]),
    # --- uniqueness semantics ------------------------------------------------------------------
    ("rel-uniqueness",
     # bob and a colleague at the same company: the same WORKS_AT edge
     # cannot serve both hops, so bob himself is not returned.
     "MATCH (b {name:'bob'})-[:WORKS_AT]->(c)<-[:WORKS_AT]-(d) "
     "RETURN d.name AS name",
     [{"name": "alice"}]),
    ("node-revisit-allowed",
     # bob→carol→bob: two *distinct* KNOWS edges; revisiting the node is
     # allowed under relationship (not node) isomorphism.
     "MATCH (b {name:'bob'})-[r1:KNOWS]->(c)-[r2:KNOWS]->(b2) "
     "RETURN b2.name AS name",
     [{"name": "bob"}]),
]


def expected_table(rows):
    if not rows:
        return None
    return Table([Record(dict(row)) for row in rows],
                 fields=set(rows[0]))


@pytest.mark.parametrize(
    "case_id,query,expected", CASES, ids=[case[0] for case in CASES]
)
def test_conformance(graph, case_id, query, expected):
    result = run_cypher(query, graph)
    if not expected:
        assert len(result) == 0, (
            f"{case_id}: expected empty, got {list(result)}"
        )
        return
    assert result.bag_equals(expected_table(expected)), (
        f"{case_id}: got {[dict(r) for r in result]}"
    )
