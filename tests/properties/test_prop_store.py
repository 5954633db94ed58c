"""Property tests for the store: random write scripts against a model.

The oracle is a plain dict model of the store: insertion-ordered maps of
node and relationship descriptions, where a node write that changes
something moves the node to the end (the order the graph's one mutator
keeps) and a relationship keeps its place.  Every snapshot must equal the
model's state at that point — content and every enumeration order the
matcher and physical operators can observe (node and relationship scans,
adjacency, label buckets, counts) — still after later writes
(persistence), and must enumerate as a rebuild from its own collections
and as a pickled copy do.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.model import Node, PropertyGraph, Relationship
from repro.graph.store import GraphStore

LABELS = ["Person", "City", "Admin"]
KEYS = ["name", "score"]
VALUES = ["ann", "bob", 1, 2, 1.0, True]


def observe(graph):
    """Every enumeration order a query evaluation can see."""
    return {
        "nodes": [
            (node.id, sorted(node.labels), list(node.properties.items()))
            for node in graph.nodes.values()
        ],
        "rels": [
            (rel.id, rel.type, rel.src, rel.trg, list(rel.properties.items()))
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


class StoreModel:
    """The store as two insertion-ordered dicts of plain descriptions."""

    def __init__(self):
        self.nodes = {}  # id → (labels, properties)
        self.rels = {}   # id → (type, src, trg, properties)

    def touch(self, node_id, labels, properties):
        self.nodes.pop(node_id)
        self.nodes[node_id] = (frozenset(labels), properties)

    def set_property(self, table, entity_id, key, value):
        """Cypher SET with the store's type-exact no-op rule."""
        properties = dict(table[entity_id][-1])
        if key in properties and type(properties[key]) is type(value) \
                and properties[key] == value:
            return
        properties[key] = value
        if table is self.nodes:
            self.touch(entity_id, self.nodes[entity_id][0], properties)
        else:
            self.rels[entity_id] = (*self.rels[entity_id][:3], properties)

    def graph(self):
        """The snapshot the model predicts, built in the model's orders."""
        return PropertyGraph.of(
            [Node(node_id, labels, properties)
             for node_id, (labels, properties) in self.nodes.items()],
            [Relationship(rel_id, *description)
             for rel_id, description in self.rels.items()],
        )


#: Creations weigh more, so scripts grow graphs that the other writes
#: can reorder.
OPS = [
    "create_node", "create_node", "create_rel", "create_rel", "create_rel",
    "set_prop", "set_rel_prop", "set_rel_prop", "set_map", "add_label",
    "remove_label", "del_rel", "del_node", "detach_node", "freeze",
]


@st.composite
def mutation_script(draw):
    """A list of (op, args) steps over abstract node/rel handles."""
    steps = draw(st.lists(st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
    ), min_size=1, max_size=40))
    return steps


def seeded_scripts(count, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        yield [(rng.choice(OPS), rng.randrange(10 ** 6),
                rng.randrange(10 ** 6), rng.randrange(10 ** 6))
               for _ in range(rng.randint(1, 40))]


def apply_script(store, steps, model=None):
    """Deterministically replay ``steps`` on ``store`` (and ``model``);
    returns each snapshot with the model's prediction of it."""
    model = model or StoreModel()
    nodes = []   # live Node handles
    rels = []    # live Relationship handles
    snapshots = []
    for op, a, b, c in steps:
        if op == "create_node":
            labels = [LABELS[i] for i in range(len(LABELS)) if a >> i & 1]
            props = {KEYS[b % len(KEYS)]: VALUES[c % len(VALUES)]}
            node = store.create_node(labels, props)
            assert node.id not in model.nodes
            model.nodes[node.id] = (frozenset(labels), props)
            nodes.append(node)
        elif op == "create_rel" and nodes:
            src = nodes[a % len(nodes)]
            trg = nodes[b % len(nodes)]
            rel_type = ["KNOWS", "LIKES"][c % 2]
            rel = store.create_relationship(src.id, rel_type, trg.id)
            assert rel.id not in model.rels
            model.rels[rel.id] = (rel_type, src.id, trg.id, {})
            rels.append(rel)
        elif op == "set_prop" and nodes:
            node = nodes[a % len(nodes)]
            key, value = KEYS[b % len(KEYS)], VALUES[c % len(VALUES)]
            store.set_property(node, key, value)
            model.set_property(model.nodes, node.id, key, value)
        elif op == "set_rel_prop" and rels:
            rel = rels[a % len(rels)]
            key, value = KEYS[b % len(KEYS)], VALUES[c % len(VALUES)]
            store.set_property(rel, key, value)
            model.set_property(model.rels, rel.id, key, value)
        elif op == "set_map" and nodes:
            node = nodes[a % len(nodes)]
            mapping = {KEYS[b % len(KEYS)]: VALUES[c % len(VALUES)]}
            replace = bool(c & 1)
            store.set_properties_from_map(node, mapping, replace)
            labels, properties = model.nodes[node.id]
            model.touch(node.id, labels,
                        {**({} if replace else properties), **mapping})
        elif op == "add_label" and nodes:
            node = nodes[a % len(nodes)]
            store.add_labels(node, [LABELS[b % len(LABELS)]])
            labels, properties = model.nodes[node.id]
            model.touch(node.id, labels | {LABELS[b % len(LABELS)]},
                        properties)
        elif op == "remove_label" and nodes:
            node = nodes[a % len(nodes)]
            store.remove_labels(node, [LABELS[b % len(LABELS)]])
            labels, properties = model.nodes[node.id]
            model.touch(node.id, labels - {LABELS[b % len(LABELS)]},
                        properties)
        elif op == "del_rel" and rels:
            rel = rels.pop(a % len(rels))
            store.delete_relationship(rel.id)
            del model.rels[rel.id]
        elif op == "del_node" and nodes:
            node = nodes[a % len(nodes)]
            if not any(node.id in (rel.src, rel.trg) for rel in rels):
                nodes.remove(node)
                store.delete_node(node.id)
                del model.nodes[node.id]
        elif op == "detach_node" and nodes:
            node = nodes.pop(a % len(nodes))
            rels = [rel for rel in rels
                    if node.id not in (rel.src, rel.trg)]
            store.delete_node(node.id, detach=True)
            del model.nodes[node.id]
            model.rels = {rel_id: description
                          for rel_id, description in model.rels.items()
                          if node.id not in description[1:3]}
        elif op == "freeze":
            snapshots.append((store.graph(), model.graph()))
        assert (store.order, store.size) == (len(model.nodes),
                                             len(model.rels))
    snapshots.append((store.graph(), model.graph()))
    return snapshots


class TestStoreModel:
    @given(steps=mutation_script())
    @settings(max_examples=150, deadline=None)
    def test_snapshots_equal_the_model_in_every_order(self, steps):
        snapshots = apply_script(GraphStore(), steps)
        for snapshot, predicted in snapshots:
            assert observe(snapshot) == observe(predicted)

    def test_seeded_scripts_equal_the_model(self):
        for steps in seeded_scripts(400):
            for snapshot, predicted in apply_script(GraphStore(), steps):
                assert observe(snapshot) == observe(predicted), steps

    def test_a_relationship_write_keeps_its_place(self):
        steps = [("create_node", 0, 0, 0), ("create_rel", 0, 0, 0),
                 ("create_rel", 0, 0, 0), ("set_rel_prop", 0, 0, 0),
                 ("set_prop", 0, 0, 0)]
        (snapshot, predicted), = apply_script(GraphStore(), steps)
        assert list(snapshot.relationships) == [1, 2]
        assert observe(snapshot) == observe(predicted)

    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_snapshots_persist_across_later_writes(self, steps):
        store = GraphStore()
        seen = []
        for snapshot, predicted in apply_script(store, steps):
            seen.append((snapshot, observe(predicted)))
        # Extra writes after the script must not reach any snapshot.
        node = store.create_node(["Person"], {"name": "late"})
        store.add_labels(node, ["Admin"])
        store.create_relationship(node.id, "KNOWS", node.id)
        store.delete_node(node.id, detach=True)
        for snapshot, predicted in seen:
            assert observe(snapshot) == predicted

    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_snapshots_enumerate_as_their_rebuild(self, steps):
        for snapshot, _ in apply_script(GraphStore(), steps):
            rebuilt = PropertyGraph.of(snapshot.nodes.values(),
                                       snapshot.relationships.values())
            assert observe(snapshot) == observe(rebuilt)

    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_expand_pairs_follows_the_accessor_order(self, steps):
        """The matcher's one graph read, ``expand_pairs``, enumerates in
        the order ``outgoing`` / ``incoming`` define (``any``: outgoing,
        then incoming without the self-loops already yielded)."""
        for graph, _ in apply_script(GraphStore(), steps):
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


class TestPickleParity:
    @given(steps=mutation_script())
    @settings(max_examples=60, deadline=None)
    def test_pickle_roundtrip_preserves_orders(self, steps):
        for graph, _ in apply_script(GraphStore(), steps):
            clone = pickle.loads(pickle.dumps(graph))
            assert observe(clone) == observe(graph)
