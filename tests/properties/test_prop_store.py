"""Property tests for the store freeze paths.

The oracle: for ANY sequence of store mutations interleaved with freezes,
the incremental (``patched``-based) freeze enumerates byte-identically
to a forced full rebuild — and so does a pickled copy — on every order
the matcher and physical operators can observe: node and relationship
enumeration, adjacency, label buckets, and counts.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

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
        "any": {nid: [rel.id for rel, _ in graph.expand_pairs(nid, "any", ())]
                for nid in graph.nodes},
        "labels": {label: [node.id
                           for node in graph.nodes_with_labels([label])]
                   for label in LABELS},
        "label_counts": graph.label_counts(),
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
    @settings(max_examples=60, deadline=None)
    def test_expand_pairs_follows_the_accessor_order(self, steps):
        """The matcher's one graph read, ``expand_pairs``, enumerates in
        the order ``outgoing`` / ``incoming`` define (``any``: outgoing,
        then incoming without the self-loops already yielded), on built
        graphs and after every ``patched()`` freeze."""
        for graph in apply_script(GraphStore(), steps):
            def undirected(nid, graph=graph):
                yield from graph.outgoing(nid)
                for rel in graph.incoming(nid):
                    if rel.src != nid:
                        yield rel

            for nid in graph.nodes:
                for direction, accessor in (("out", graph.outgoing),
                                            ("in", graph.incoming),
                                            ("any", undirected)):
                    assert [rel.id for rel, _ in graph.expand_pairs(
                        nid, direction, ())
                    ] == [rel.id for rel in accessor(nid)]


class TestPatchedParity:
    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_pickle_roundtrip_preserves_orders(self, steps):
        for graph in apply_script(GraphStore(), steps):
            clone = pickle.loads(pickle.dumps(graph))
            assert observe(clone) == observe(graph)
