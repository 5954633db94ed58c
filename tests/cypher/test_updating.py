"""Unit tests for the write subset (CREATE/MERGE/SET/DELETE/REMOVE)."""

import pytest

from repro.cypher import run_cypher
from repro.cypher.updating import UpdatingQueryEvaluator, run_update
from repro.errors import CypherEvaluationError, CypherSyntaxError
from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore
from repro.graph.values import NULL


def names(store, label="Person"):
    table = run_cypher(
        f"MATCH (p:{label}) RETURN p.name AS n ORDER BY n", store.graph()
    )
    return [record["n"] for record in table]


class TestCreate:
    def test_create_single_node(self):
        store = GraphStore()
        run_update("CREATE (p:Person {name: 'Ann'})", store)
        assert names(store) == ["Ann"]

    def test_create_path(self):
        store = GraphStore()
        run_update(
            "CREATE (:Person {name: 'A'})-[:KNOWS {w: 1}]->"
            "(:Person {name: 'B'})",
            store,
        )
        table = run_cypher(
            "MATCH (a)-[r:KNOWS]->(b) RETURN a.name AS a, b.name AS b, "
            "r.w AS w",
            store.graph(),
        )
        assert [dict(record) for record in table] == [
            {"a": "A", "b": "B", "w": 1}
        ]

    def test_create_per_input_row(self):
        store = GraphStore()
        run_update(
            "UNWIND [1, 2, 3] AS x CREATE (:Item {value: x * 10})", store
        )
        table = run_cypher(
            "MATCH (i:Item) RETURN collect(i.value) AS vs", store.graph()
        )
        assert sorted(table.records[0]["vs"]) == [10, 20, 30]

    def test_create_reuses_bound_variables(self):
        store = GraphStore()
        run_update(
            "CREATE (a:Person {name: 'A'}) CREATE (b:Person {name: 'B'}) "
            "CREATE (a)-[:KNOWS]->(b)",
            store,
        )
        assert store.order == 2 and store.size == 1

    def test_create_bound_variable_with_labels_rejected(self):
        store = GraphStore()
        with pytest.raises(CypherEvaluationError):
            run_update(
                "CREATE (a:Person) CREATE (a:Admin)-[:R]->(:X)", store
            )

    def test_create_undirected_rejected(self):
        store = GraphStore()
        with pytest.raises(CypherEvaluationError):
            run_update("CREATE (:A)-[:R]-(:B)", store)

    def test_create_incoming_direction(self):
        store = GraphStore()
        run_update("CREATE (a:A)<-[:R]-(b:B)", store)
        rel = next(iter(store.graph().relationships.values()))
        src = store.graph().node(rel.src)
        assert "B" in src.labels

    def test_create_returns_created_values(self):
        store = GraphStore()
        table = run_update(
            "CREATE (p:Person {name: 'Ann'}) RETURN p.name AS name", store
        )
        assert [dict(record) for record in table] == [{"name": "Ann"}]

    def test_create_path_variable(self):
        store = GraphStore()
        table = run_update(
            "CREATE q = (:A)-[:R]->(:B) RETURN length(q) AS l", store
        )
        assert table.records[0]["l"] == 1


class TestMerge:
    def test_merge_creates_when_absent(self):
        store = GraphStore()
        run_update("MERGE (p:Person {name: 'Ann'})", store)
        assert names(store) == ["Ann"]

    def test_merge_matches_when_present(self):
        store = GraphStore()
        run_update("CREATE (:Person {name: 'Ann'})", store)
        run_update("MERGE (p:Person {name: 'Ann'})", store)
        assert store.order == 1  # no duplicate

    def test_merge_on_create_and_on_match(self):
        store = GraphStore()
        run_update(
            "MERGE (p:Person {name: 'Ann'}) "
            "ON CREATE SET p.created = true ON MATCH SET p.matched = true",
            store,
        )
        run_update(
            "MERGE (p:Person {name: 'Ann'}) "
            "ON CREATE SET p.created2 = true ON MATCH SET p.matched = true",
            store,
        )
        node = next(iter(store.graph().nodes.values()))
        assert node.property("created") is True
        assert node.property("matched") is True
        assert node.property("created2") is NULL

    def test_merge_with_parameters_is_idempotent(self):
        # The Listing 4 ingestion contract.
        store = GraphStore()
        for _ in range(3):
            run_update("MERGE (b:Bike {id: $vehicle})", store,
                       parameters={"vehicle": 5})
        assert store.order == 1

    def test_merge_path_creates_whole_pattern(self):
        store = GraphStore()
        run_update("CREATE (:Station {id: 1})", store)
        run_update(
            "MATCH (s:Station {id: 1}) "
            "MERGE (b:Bike {id: 5})-[:rentedAt]->(s)",
            store,
        )
        assert store.order == 2 and store.size == 1
        # Re-merging the same path matches instead of duplicating.
        run_update(
            "MATCH (s:Station {id: 1}) "
            "MERGE (b:Bike {id: 5})-[:rentedAt]->(s)",
            store,
        )
        assert store.size == 1


class TestSet:
    @pytest.fixture
    def store(self):
        store = GraphStore()
        run_update("CREATE (:Person {name: 'Ann', age: 30})", store)
        return store

    def test_set_property(self, store):
        run_update("MATCH (p:Person) SET p.age = p.age + 1", store)
        assert store.graph().nodes[1].property("age") == 31

    def test_set_null_removes(self, store):
        run_update("MATCH (p:Person) SET p.age = null", store)
        assert store.graph().nodes[1].property("age") is NULL

    def test_set_labels(self, store):
        run_update("MATCH (p:Person) SET p:Member:Active", store)
        assert {"Person", "Member", "Active"} <= store.graph().nodes[1].labels

    def test_set_additive_map(self, store):
        run_update("MATCH (p:Person) SET p += {city: 'Leipzig'}", store)
        node = store.graph().nodes[1]
        assert node.property("city") == "Leipzig"
        assert node.property("name") == "Ann"

    def test_set_replace_map(self, store):
        run_update("MATCH (p:Person) SET p = {city: 'Lyon'}", store)
        node = store.graph().nodes[1]
        assert node.property("city") == "Lyon"
        assert node.property("name") is NULL

    def test_later_clauses_see_updates(self, store):
        table = run_update(
            "MATCH (p:Person) SET p.age = 99 RETURN p.age AS age", store
        )
        assert table.records[0]["age"] == 99


class TestRemove:
    def test_remove_property_and_label(self):
        store = GraphStore()
        run_update("CREATE (:Person:Temp {name: 'Ann', x: 1})", store)
        run_update("MATCH (p:Person) REMOVE p.x, p:Temp", store)
        node = store.graph().nodes[1]
        assert node.property("x") is NULL
        assert node.labels == frozenset({"Person"})


class TestDelete:
    def test_delete_relationship(self):
        store = GraphStore()
        run_update("CREATE (:A)-[:R]->(:B)", store)
        run_update("MATCH ()-[r:R]->() DELETE r", store)
        assert store.size == 0 and store.order == 2

    def test_delete_node_needs_detach(self):
        store = GraphStore()
        run_update("CREATE (:A)-[:R]->(:B)", store)
        with pytest.raises(Exception):
            run_update("MATCH (a:A) DELETE a", store)
        run_update("MATCH (a:A) DETACH DELETE a", store)
        assert store.order == 1

    def test_delete_same_entity_from_multiple_rows(self):
        store = GraphStore()
        run_update("CREATE (:Hub)<-[:R]-(:X), (:Y)", store)
        run_update("MATCH (h:Hub), (other) DETACH DELETE h", store)
        assert all(
            "Hub" not in node.labels
            for node in store.graph().nodes.values()
        )

    def test_delete_path(self):
        store = GraphStore()
        run_update("CREATE (:A)-[:R]->(:B)", store)
        run_update("MATCH p = (:A)-[:R]->(:B) DELETE p", store)
        assert store.order == 0 and store.size == 0


class TestQueryShapes:
    def test_read_query_requires_return(self):
        with pytest.raises(CypherSyntaxError):
            from repro.cypher.parser import parse_cypher

            parse_cypher("MATCH (n)")

    def test_update_query_without_return_is_valid(self):
        from repro.cypher.parser import parse_cypher

        parse_cypher("MATCH (n) SET n.x = 1")
        parse_cypher("CREATE (:A)")

    def test_union_rejected_in_updates(self):
        store = GraphStore()
        with pytest.raises(CypherEvaluationError):
            run_update("CREATE (:A) RETURN 1 AS x UNION RETURN 2 AS x",
                       store)

    def test_update_query_returns_empty_without_return(self):
        store = GraphStore()
        table = run_update("CREATE (:A)", store)
        assert len(table) == 0

    def test_write_render_round_trip(self):
        from repro.cypher.parser import parse_cypher

        for text in [
            "MERGE (b:Bike {id: 5}) ON CREATE SET b.fresh = true "
            "ON MATCH SET b.seen = true",
            "MATCH (n) SET n.x = 1, n:Label, n += {y: 2}",
            "MATCH (n) DETACH DELETE n",
            "MATCH (n) REMOVE n.x, n:Temp",
            "CREATE (a:A {x: 1})-[:R {w: 2}]->(b:B)",
        ]:
            query = parse_cypher(text)
            assert parse_cypher(query.render()) == query


class TestReadYourWrites:
    """A statement reads the store's live graph: each row sees the writes
    of the rows before it, and no write copies the store."""

    def test_merge_sees_the_node_an_earlier_row_created(self):
        store = GraphStore()
        run_update("UNWIND [1, 1] AS k MERGE (r:R {k: k})", store)
        assert store.order == 1
        assert [node.properties["k"] for node in
                store.graph().nodes.values()] == [1]

    def test_a_snapshot_taken_before_a_statement_is_unchanged(self):
        store = GraphStore()
        run_update("CREATE (:R {k: 0})", store)
        before = store.graph()
        run_update(
            "MATCH (r:R) SET r.k = 1 "
            "CREATE (r)-[:NEXT]->(:R {k: 2})", store
        )
        assert [dict(node.properties) for node in before.nodes.values()] \
            == [{"k": 0}]
        assert before.size == 0
        assert store.order == 2 and store.size == 1

    def test_a_statement_makes_no_store_copy(self, monkeypatch):
        store = GraphStore()
        run_update("UNWIND range(1, 5) AS k CREATE (:R {k: k})", store)
        copies = []
        original = PropertyGraph._thawed
        monkeypatch.setattr(
            PropertyGraph, "_thawed",
            lambda graph: copies.append(graph) or original(graph),
        )
        run_update(
            "UNWIND [1, 2, 6, 6] AS k MERGE (r:R {k: k}) "
            "ON CREATE SET r.new = true "
            "WITH r MATCH (s:R) WHERE s.k < r.k "
            "MERGE (s)-[:BELOW]->(r) SET r.seen = true "
            "REMOVE r.new", store,
        )
        assert copies == []
        assert store.order == 6
        store.graph()  # a snapshot for a caller is one copy
        assert len(copies) == 1
