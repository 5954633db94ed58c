"""Unit tests for the interned, array-backed columnar graph core.

The contract under test: :class:`ColumnarGraph` is observationally
identical to the reference :class:`PropertyGraph` — same enumeration
orders, same error messages, same index behavior — while serving reads
from interned slot arrays, CSR adjacency, and per-label columns.
"""

import pickle

import pytest

from repro.errors import EngineError, GraphConsistencyError
from repro.graph.columnar import (
    GRAPH_BACKENDS,
    ColumnarGraph,
    ColumnarStore,
    resolve_backend,
    resolve_backend_name,
)
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.graph.store import GraphStore
from repro.usecases.micromobility import figure2_graph


def n(node_id, labels=(), **props):
    return Node(id=node_id, labels=frozenset(labels), properties=props)


def r(rel_id, src, trg, rel_type="R", **props):
    return Relationship(id=rel_id, type=rel_type, src=src, trg=trg,
                        properties=props)


def fingerprint(graph):
    """Every enumeration order the matcher / operators can observe."""
    return {
        "nodes": list(graph.nodes),
        "node_objs": list(graph.nodes.values()),
        "rels": list(graph.relationships),
        "rel_objs": list(graph.relationships.values()),
        "out": {nid: [rel.id for rel in graph.outgoing(nid)]
                for nid in graph.nodes},
        "in": {nid: [rel.id for rel in graph.incoming(nid)]
               for nid in graph.nodes},
        "incident": {nid: [rel.id for rel in graph.incident(nid)]
                     for nid in graph.nodes},
        "labels": {
            label: [node.id for node in graph.nodes_with_labels([label])]
            for label in graph.label_counts()
        },
        "label_counts": graph.label_counts(),
        "type_counts": graph.rel_type_counts(),
        "degree": {nid: graph.degree(nid) for nid in graph.nodes},
    }


def pair(seed=0):
    """The same small graph in both backends."""
    nodes = [n(1, ["Person"], name="Ann"), n(2, ["Person"], name="Bob"),
             n(3, ["City"], name="Oslo"), n(4)]
    rels = [r(10, 1, 2, "KNOWS", since=2020), r(11, 2, 3, "LIVES_IN"),
            r(12, 1, 3, "LIVES_IN"), r(13, 4, 4, "SELF")]
    return (PropertyGraph.of(nodes, rels), ColumnarGraph.of(nodes, rels))


class TestConstruction:
    def test_empty_is_singleton_and_empty(self):
        assert ColumnarGraph.empty() is ColumnarGraph.empty()
        empty = ColumnarGraph.empty()
        assert empty.is_empty() and empty.order == 0 and empty.size == 0

    def test_of_matches_reference(self):
        ref, col = pair()
        assert fingerprint(ref) == fingerprint(col)

    def test_figure2_matches_reference(self):
        ref = figure2_graph()
        col = ColumnarGraph.of(ref.nodes.values(), ref.relationships.values())
        assert fingerprint(ref) == fingerprint(col)
        assert col == ref and ref == col

    def test_duplicate_identical_node_tolerated(self):
        node = n(1, ["A"])
        graph = ColumnarGraph.of([node, n(1, ["A"])])
        assert graph.order == 1

    def test_conflicting_duplicate_node_raises_like_reference(self):
        with pytest.raises(GraphConsistencyError) as col_err:
            ColumnarGraph.of([n(1, ["A"]), n(1, ["B"])])
        with pytest.raises(GraphConsistencyError) as ref_err:
            PropertyGraph.of([n(1, ["A"]), n(1, ["B"])])
        assert str(col_err.value) == str(ref_err.value)

    def test_dangling_endpoints_raise_like_reference(self):
        for rel in (r(10, 9, 1), r(10, 1, 9)):
            with pytest.raises(GraphConsistencyError) as col_err:
                ColumnarGraph.of([n(1)], [rel])
            with pytest.raises(GraphConsistencyError) as ref_err:
                PropertyGraph.of([n(1)], [rel])
            assert str(col_err.value) == str(ref_err.value)


class TestViews:
    def test_mapping_protocol(self):
        _, col = pair()
        assert len(col.nodes) == 4 and len(col.relationships) == 4
        assert 1 in col.nodes and 99 not in col.nodes
        assert 10 in col.relationships and 99 not in col.relationships
        assert col.nodes[1].property("name") == "Ann"
        assert col.nodes.get(99) is None
        assert col.relationships.get(99) is None
        assert dict(col.nodes.items())[2].property("name") == "Bob"
        assert [rel.id for rel in col.relationships.values()] == \
            [10, 11, 12, 13]

    def test_node_and_relationship_raise_keyerror(self):
        _, col = pair()
        with pytest.raises(KeyError):
            col.node(99)
        with pytest.raises(KeyError):
            col.relationship(99)

    def test_contains_entities(self):
        ref, col = pair()
        node, rel = ref.node(1), ref.relationship(10)
        assert node in col and rel in col
        # Entity == is identity-by-id (Cypher value equality), so
        # membership matches the reference backend's by-id semantics.
        assert (n(1, ["Person"], name="Other") in col) == \
            (n(1, ["Person"], name="Other") in ref)
        assert n(99) not in col and r(99, 1, 2) not in col


class TestIndexes:
    def test_nodes_with_labels_orders(self):
        ref, col = pair()
        for labels in ([], ["Person"], ["City"], ["Person", "City"],
                       ["Nope"]):
            assert [x.id for x in col.nodes_with_labels(labels)] == \
                [x.id for x in ref.nodes_with_labels(labels)]

    def test_nodes_with_property_matches_reference(self):
        ref, col = pair()
        for label, key, value in [("Person", "name", "Ann"),
                                  ("Person", "name", "Nope"),
                                  ("City", "name", "Oslo")]:
            got = col.nodes_with_property(label, key, value)
            want = ref.nodes_with_property(label, key, value)
            assert [x.id for x in got] == [x.id for x in want]

    def test_nodes_with_property_unindexable_returns_none(self):
        _, col = pair()
        assert col.nodes_with_property("Person", "name", [1, 2]) is None

    def test_counts(self):
        ref, col = pair()
        assert col.label_counts() == ref.label_counts()
        assert col.rel_type_counts() == ref.rel_type_counts()
        assert col.label_count("Person") == 2
        assert col.rel_type_count("LIVES_IN") == 2
        assert col.rel_type_count("NOPE") == 0


class TestExpandPairs:
    def test_out_in_any(self):
        _, col = pair()
        out = col.expand_pairs(1, "out", ())
        assert [(rel.id, node.id) for rel, node in out] == \
            [(10, 2), (12, 3)]
        inc = col.expand_pairs(3, "in", ())
        assert [(rel.id, node.id) for rel, node in inc] == \
            [(11, 2), (12, 1)]
        both = col.expand_pairs(2, "any", ())
        assert [(rel.id, node.id) for rel, node in both] == \
            [(11, 3), (10, 1)]

    def test_type_filter(self):
        _, col = pair()
        only = col.expand_pairs(1, "out", ("LIVES_IN",))
        assert [(rel.id, node.id) for rel, node in only] == [(12, 3)]
        assert col.expand_pairs(1, "out", ("NOPE",)) == ()

    def test_self_loop_deduped_in_any(self):
        _, col = pair()
        loops = col.expand_pairs(4, "any", ())
        assert [(rel.id, node.id) for rel, node in loops] == [(13, 4)]

    def test_memoized(self):
        _, col = pair()
        assert col.expand_pairs(1, "out", ()) is col.expand_pairs(1, "out", ())

    def test_unknown_node_empty(self):
        _, col = pair()
        assert col.expand_pairs(99, "out", ()) == ()


def apply_both(ref, col, **kwargs):
    ref2, col2 = ref.patched(**kwargs), col.patched(**kwargs)
    assert fingerprint(ref2) == fingerprint(col2)
    assert ref2 == col2
    return ref2, col2


class TestPatched:
    def test_upsert_moves_to_end(self):
        ref, col = pair()
        ref, col = apply_both(ref, col,
                              nodes=[n(1, ["Person"], name="Ann2")])
        assert list(col.nodes) == [2, 3, 4, 1]

    def test_new_entities_append(self):
        ref, col = pair()
        apply_both(ref, col, nodes=[n(5, ["Person"])],
                   relationships=[r(14, 5, 1, "KNOWS")])

    def test_relationship_update_keeps_position(self):
        ref, col = pair()
        ref, col = apply_both(
            ref, col, relationships=[r(10, 1, 2, "KNOWS", since=2021)])
        assert list(col.relationships) == [10, 11, 12, 13]

    def test_relationship_type_change(self):
        ref, col = pair()
        ref, col = apply_both(ref, col,
                              relationships=[r(10, 1, 2, "LIKES")])
        assert col.rel_type_count("KNOWS") == 0
        assert col.rel_type_count("LIKES") == 1

    def test_endpoint_change_rewrites_adjacency(self):
        ref, col = pair()
        apply_both(ref, col, relationships=[r(10, 3, 4, "KNOWS")])

    def test_removals(self):
        ref, col = pair()
        ref, col = apply_both(ref, col, removed_rels=[13])
        apply_both(ref, col, removed_nodes=[4])

    def test_remove_then_reuse_id(self):
        ref, col = pair()
        ref, col = apply_both(ref, col, removed_rels=[13],
                              removed_nodes=[4])
        apply_both(ref, col, nodes=[n(4, ["Fresh"])],
                   relationships=[r(13, 4, 1, "BACK")])

    def test_error_messages_match_reference(self):
        cases = [
            dict(removed_nodes=[99]),
            dict(removed_rels=[99]),
            dict(removed_nodes=[1]),  # still has relationships
            dict(relationships=[r(20, 99, 1)]),
            dict(relationships=[r(20, 1, 99)]),
        ]
        for kwargs in cases:
            ref, col = pair()
            with pytest.raises(GraphConsistencyError) as ref_err:
                ref.patched(**kwargs)
            with pytest.raises(GraphConsistencyError) as col_err:
                col.patched(**kwargs)
            assert str(col_err.value) == str(ref_err.value)

    def test_patched_is_persistent(self):
        ref, col = pair()
        before = fingerprint(col)
        col.patched(nodes=[n(9)], removed_rels=[13])
        assert fingerprint(col) == before

    def test_long_patch_chain_crosses_compaction(self):
        ref, col = pair()
        for step in range(40):
            node_id = 100 + step
            kwargs = dict(
                nodes=[n(node_id, ["Person"], v=step)],
                relationships=[r(100 + step, node_id, node_id, "SELF")],
            )
            ref, col = apply_both(ref, col, **kwargs)
            if step % 3 == 2:
                ref, col = apply_both(ref, col,
                                      removed_rels=[100 + step],
                                      removed_nodes=[node_id])
        assert fingerprint(ref) == fingerprint(col)


class TestPickle:
    def test_roundtrip_matches(self):
        _, col = pair()
        clone = pickle.loads(pickle.dumps(col))
        assert fingerprint(clone) == fingerprint(col)
        assert clone == col

    def test_roundtrip_after_patches(self):
        ref, col = pair()
        ref, col = apply_both(ref, col, nodes=[n(1, ["Person"], x=1)],
                              removed_rels=[13], removed_nodes=[4])
        clone = pickle.loads(pickle.dumps(col))
        assert fingerprint(clone) == fingerprint(col)
        # The reference backend pickles the same observable state.
        ref_clone = pickle.loads(pickle.dumps(ref))
        assert fingerprint(clone) == fingerprint(ref_clone)

    def test_empty_roundtrip(self):
        clone = pickle.loads(pickle.dumps(ColumnarGraph.empty()))
        assert clone.is_empty()


class TestColumnarStore:
    def test_store_freezes_columnar(self):
        store = ColumnarStore()
        node = store.create_node(["Person"], {"name": "Ann"})
        graph = store.graph()
        assert isinstance(graph, ColumnarGraph)
        assert graph.node(node.id).property("name") == "Ann"

    def test_store_matches_reference_store(self):
        def script(store):
            a = store.create_node(["Person"], {"name": "Ann"})
            b = store.create_node(["Person"], {"name": "Bob"})
            rel = store.create_relationship(a.id, "KNOWS", b.id)
            store.set_property(a, "age", 30)
            store.graph()  # interleave freezes with mutations
            store.add_labels(b, ["Admin"])
            store.delete_relationship(rel.id)
            store.delete_node(b.id)
            return store.graph()

        ref = script(GraphStore())
        col = script(ColumnarStore())
        assert fingerprint(ref) == fingerprint(col)

    def test_store_load_roundtrip(self):
        store = ColumnarStore(figure2_graph())
        assert store.graph() == figure2_graph()


class TestBackendRegistry:
    def test_registry_contents(self):
        assert GRAPH_BACKENDS["reference"] is PropertyGraph
        assert GRAPH_BACKENDS["columnar"] is ColumnarGraph

    def test_resolve_explicit(self):
        assert resolve_backend_name("columnar") == "columnar"
        assert resolve_backend("columnar") is ColumnarGraph
        assert resolve_backend("reference") is PropertyGraph

    def test_unknown_backend_raises(self):
        with pytest.raises(EngineError, match="unknown graph backend"):
            resolve_backend_name("bogus")
