"""Property tests for the columnar backend and the store freeze paths.

The oracle (the tentpole's correctness argument): for ANY sequence of
store mutations interleaved with freezes,

* the incremental (``patched``-based) freeze enumerates byte-identically
  to a forced full rebuild, and
* the columnar backend enumerates byte-identically to the reference
  backend

on every order the matcher and physical operators can observe: node and
relationship enumeration, adjacency, label buckets, property-index
seeks, and counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.columnar import ColumnarGraph, ColumnarStore
from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore

LABELS = ["Person", "City", "Admin"]
KEYS = ["name", "score"]
VALUES = ["ann", "bob", 1, 2, 1.0, True]


def observe(graph):
    """Every enumeration order a query evaluation can see."""
    return {
        "nodes": [
            (node.id, sorted(node.labels),
             sorted(node.properties.items(), key=repr))
            for node in graph.nodes.values()
        ],
        "rels": [
            (rel.id, rel.type, rel.src, rel.trg,
             sorted(rel.properties.items(), key=repr))
            for rel in graph.relationships.values()
        ],
        "out": {nid: [rel.id for rel in graph.outgoing(nid)]
                for nid in graph.nodes},
        "in": {nid: [rel.id for rel in graph.incoming(nid)]
               for nid in graph.nodes},
        "incident": {nid: [rel.id for rel in graph.incident(nid)]
                     for nid in graph.nodes},
        "labels": {label: [node.id
                           for node in graph.nodes_with_labels([label])]
                   for label in LABELS},
        "label_counts": graph.label_counts(),
        "type_counts": graph.rel_type_counts(),
        "seeks": {
            (label, key, repr(value)): (
                None if found is None else [node.id for node in found]
            )
            for label in LABELS
            for key in KEYS
            for value in VALUES
            for found in [graph.nodes_with_property(label, key, value)]
        },
    }


@st.composite
def mutation_script(draw):
    """A list of (op, args) steps over abstract node/rel handles."""
    steps = draw(st.lists(st.tuples(
        st.sampled_from([
            "create_node", "create_rel", "set_prop", "set_rel_prop",
            "add_label", "remove_label", "del_rel", "del_node",
            "detach_node", "freeze",
        ]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    ), min_size=1, max_size=40))
    return steps


def apply_script(store, steps):
    """Deterministically replay ``steps``; yields each frozen snapshot."""
    nodes = []   # live Node handles
    rels = []    # live Relationship handles
    snapshots = []
    for op, a, b, c in steps:
        if op == "create_node":
            labels = [LABELS[i] for i in range(len(LABELS)) if a >> i & 1]
            props = {KEYS[b % len(KEYS)]: VALUES[c % len(VALUES)]}
            nodes.append(store.create_node(labels, props))
        elif op == "create_rel" and nodes:
            src = nodes[a % len(nodes)]
            trg = nodes[b % len(nodes)]
            rels.append(store.create_relationship(
                src.id, ["KNOWS", "LIKES"][c % 2], trg.id
            ))
        elif op == "set_prop" and nodes:
            store.set_property(nodes[a % len(nodes)],
                               KEYS[b % len(KEYS)], VALUES[c % len(VALUES)])
        elif op == "set_rel_prop" and rels:
            store.set_property(rels[a % len(rels)],
                               KEYS[b % len(KEYS)], VALUES[c % len(VALUES)])
        elif op == "add_label" and nodes:
            store.add_labels(nodes[a % len(nodes)],
                             [LABELS[b % len(LABELS)]])
        elif op == "remove_label" and nodes:
            store.remove_labels(nodes[a % len(nodes)],
                                [LABELS[b % len(LABELS)]])
        elif op == "del_rel" and rels:
            rel = rels.pop(a % len(rels))
            store.delete_relationship(rel.id)
        elif op == "del_node" and nodes:
            node = nodes[a % len(nodes)]
            if node.id not in store._incident:
                nodes.remove(node)
                store.delete_node(node.id)
        elif op == "detach_node" and nodes:
            node = nodes.pop(a % len(nodes))
            rels = [rel for rel in rels
                    if node.id not in (rel.src, rel.trg)]
            store.delete_node(node.id, detach=True)
        elif op == "freeze":
            snapshots.append(store.graph())
    snapshots.append(store.graph())
    return snapshots


class TestFreezeOracle:
    @given(steps=mutation_script())
    @settings(max_examples=120, deadline=None)
    def test_incremental_freeze_equals_full_rebuild(self, steps):
        incremental = GraphStore()
        rebuilt = GraphStore()
        # Force every freeze of the control store down the full-rebuild
        # path by marking the epoch as a bulk load.
        original_graph = rebuilt.graph

        def full_rebuild():
            rebuilt._full_rebuild = True
            return original_graph()

        rebuilt.graph = full_rebuild
        left = apply_script(incremental, steps)
        right = apply_script(rebuilt, steps)
        for inc, full in zip(left, right):
            assert observe(inc) == observe(full)

    @given(steps=mutation_script())
    @settings(max_examples=120, deadline=None)
    def test_columnar_store_equals_reference_store(self, steps):
        reference = apply_script(GraphStore(), steps)
        columnar = apply_script(ColumnarStore(), steps)
        for ref, col in zip(reference, columnar):
            assert isinstance(ref, PropertyGraph)
            assert isinstance(col, ColumnarGraph)
            assert observe(ref) == observe(col)
            assert ref == col and col == ref

    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_matcher_read_contract_is_backend_independent(self, steps):
        """The three reads the matcher and the candidate pruner use —
        ``expand_pairs``, ``label_id_column``, ``property_id_column`` —
        return equal sequences from both backends, on built graphs and
        after every ``patched()`` freeze."""
        from repro.graph.values import property_index_key

        def reads(graph):
            return {
                "expand": {
                    (nid, direction, types): [
                        (rel.id, node.id) for rel, node
                        in graph.expand_pairs(nid, direction, types)
                    ]
                    for nid in graph.nodes
                    for direction in ("out", "in", "any")
                    for types in ((), ("KNOWS",), ("LIKES", "KNOWS"))
                },
                "labels": {label: tuple(graph.label_id_column(label))
                           for label in LABELS},
                "buckets": {
                    (label, key, repr(value)): tuple(
                        graph.property_id_column(
                            label, key, property_index_key(value)
                        )
                    )
                    for label in LABELS for key in KEYS for value in VALUES
                },
            }

        reference = apply_script(GraphStore(), steps)
        columnar = apply_script(ColumnarStore(), steps)
        for ref, col in zip(reference, columnar):
            assert reads(ref) == reads(col)
            # The contract's order is the one the accessors define.
            for nid in ref.nodes:
                assert [rel.id for rel, _ in ref.expand_pairs(nid, "any", ())] \
                    == [rel.id for rel in ref.incident(nid)]

    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_columnar_incremental_equals_columnar_rebuild(self, steps):
        incremental = ColumnarStore()
        rebuilt = ColumnarStore()
        original_graph = rebuilt.graph

        def full_rebuild():
            rebuilt._full_rebuild = True
            return original_graph()

        rebuilt.graph = full_rebuild
        left = apply_script(incremental, steps)
        right = apply_script(rebuilt, steps)
        for inc, full in zip(left, right):
            assert observe(inc) == observe(full)


class TestPatchedParity:
    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_pickle_roundtrip_preserves_orders(self, steps):
        import pickle

        snapshots = apply_script(ColumnarStore(), steps)
        for graph in snapshots:
            clone = pickle.loads(pickle.dumps(graph))
            assert observe(clone) == observe(graph)


# Query shapes exercising every pruning surface over the script's
# vocabulary: label-only, label+literal-property (str / int-float
# bucket sharing / bool), expand-target probes, var-length terminals,
# and an unprunable label-less pattern as the control.
PRUNE_QUERIES = [
    "MATCH (a:Person) RETURN id(a) AS a",
    "MATCH (a:Person {name: 'ann'}) RETURN id(a) AS a",
    "MATCH (a:Person {score: 1}) RETURN id(a) AS a",
    "MATCH (a:Admin {score: 1.0}) RETURN id(a) AS a",
    "MATCH (a:Person {name: true}) RETURN id(a) AS a",
    "MATCH (a:Person)-[:KNOWS]->(b:City {name: 'bob'}) "
    "RETURN id(a) AS a, id(b) AS b",
    "MATCH (a:Admin)-[*1..2]->(b:Person {score: 2}) "
    "RETURN id(a) AS a, id(b) AS b",
    "MATCH (a {score: 2}) RETURN id(a) AS a",
]


class TestVectorizedOracle:
    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_pruned_matching_is_byte_identical(self, steps):
        """vectorized x backend: for ANY snapshot history, every pruning
        surface enumerates byte-identically to the interpreted matcher on
        both backends."""
        from repro.cypher import run_cypher

        reference = apply_script(GraphStore(), steps)
        columnar = apply_script(ColumnarStore(), steps)
        for ref, col in zip(reference, columnar):
            for text in PRUNE_QUERIES:
                oracle = run_cypher(text, ref, vectorized=False).render()
                for graph in (ref, col):
                    assert run_cypher(
                        text, graph, vectorized=True
                    ).render() == oracle
