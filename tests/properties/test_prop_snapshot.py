"""Property-based tests: incremental snapshot maintenance ≡ recompute.

The maintainer keeps one live graph and mutates it in place, so beside
content equality the laws pin the in-place contract: the same object
after every advance, and every enumeration order a query can observe
equal to the graph's own pickle round trip (a rebuild from ``nodes`` and
``relationships`` order).
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphUnionError
from repro.graph.generators import random_stream
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.graph.values import property_index_key
from repro.stream.snapshot import SnapshotMaintainer, snapshot_graph
from repro.stream.stream import StreamElement


def _seeks(graph):
    """Each index seek the graph's own values ask for, beside the label
    scan filtered on the same index key."""
    seeks = {}
    for node in graph.nodes.values():
        for label in node.labels:
            for key, value in node.properties.items():
                wanted = property_index_key(value)
                found = graph.nodes_with_property(label, key, value)
                if found is None:
                    continue
                scan = [n.id for n in graph.nodes_with_labels([label])
                        if property_index_key(n.property(key)) == wanted]
                seeks[label, key, wanted] = ([n.id for n in found], scan)
    return seeks


def _orders(graph, seeks):
    """Every enumeration order a query evaluation can observe."""
    labels = {label for node in graph.nodes.values() for label in node.labels}
    orders = {
        "nodes": list(graph.nodes),
        "rels": list(graph.relationships),
        "labels": {label: [n.id for n in graph.nodes_with_labels([label])]
                   for label in labels},
        "expand": {(node_id, direction): [
            rel.id for rel, _ in graph.expand_pairs(node_id, direction, ())
        ] for node_id in graph.nodes for direction in ("out", "in", "any")},
    }
    if seeks:
        orders["seeks"] = _seeks(graph)
    return orders


def assert_in_place_orders(graph, seeks):
    """``graph`` enumerates as its pickle round trip does; with ``seeks``
    (which materializes the property index) every seek equals its
    filtered label scan."""
    assert _orders(graph, seeks) == _orders(
        pickle.loads(pickle.dumps(graph)), seeks
    )
    if seeks:
        for found, scan in _seeks(graph).values():
            assert found == scan


@st.composite
def stream_and_ops(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    num_events = draw(st.integers(min_value=1, max_value=15))
    pool = draw(st.integers(min_value=2, max_value=8))
    elements = random_stream(
        random.Random(seed),
        num_events=num_events,
        shared_node_pool=pool,
        nodes_per_event=min(3, pool),
        relationships_per_event=3,
    )
    window = draw(st.integers(min_value=1, max_value=num_events))
    return elements, window


class TestMaintainerAgreesWithDefinition:
    @given(data=stream_and_ops())
    @settings(max_examples=50, deadline=None)
    def test_sliding_window_equivalence(self, data):
        elements, window = data
        maintainer = SnapshotMaintainer()
        graph = None
        for index, element in enumerate(elements):
            maintainer.add(element)
            if index >= window:
                maintainer.remove(elements[index - window])
            live = elements[max(0, index - window + 1): index + 1]
            maintained = maintainer.graph()
            assert graph is None or maintained is graph
            graph = maintained
            assert maintained == snapshot_graph(live)
            # The property index materializes mid-stream and is then
            # maintained in place.
            assert_in_place_orders(maintained,
                                   seeks=2 * index >= len(elements))

    @given(data=stream_and_ops())
    @settings(max_examples=50, deadline=None)
    def test_add_remove_round_trip_is_empty(self, data):
        elements, _ = data
        maintainer = SnapshotMaintainer()
        for element in elements:
            maintainer.add(element)
        for element in elements:
            maintainer.remove(element)
        assert maintainer.is_empty()
        assert maintainer.graph().is_empty()

    @given(data=stream_and_ops())
    @settings(max_examples=50, deadline=None)
    def test_removal_order_does_not_matter(self, data):
        elements, _ = data
        forward = SnapshotMaintainer()
        backward = SnapshotMaintainer()
        for element in elements:
            forward.add(element)
            backward.add(element)
        keep = len(elements) // 2
        for element in elements[keep:]:
            forward.remove(element)
        for element in reversed(elements[keep:]):
            backward.remove(element)
        assert forward.graph() == backward.graph()
        assert forward.graph() == snapshot_graph(elements[:keep])


# -- net-change tracking under overlapping, repeated and conflicting facts ----

_NODE = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([("A",), ("A",), ("A",), ("B",)]),
    st.fixed_dictionaries(
        {}, optional={"k": st.sampled_from([1, 1, 1, 2]), "m": st.just(7)}
    ),
)
_REL = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["R", "R", "R", "S"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.fixed_dictionaries({}, optional={"w": st.sampled_from([1, 1, 2])}),
)


@st.composite
def overlapping_element(draw):
    """A tiny graph over a tiny id space: elements share ids, repeat each
    other's descriptions, and now and then contradict them."""
    described = {}
    for node_id, labels, props in draw(
        st.lists(_NODE, min_size=1, max_size=3)
    ):
        described[node_id] = Node(node_id, labels, props)
    ids = sorted(described)
    rels = {}
    for rel_id, rel_type, src, trg, props in draw(
        st.lists(_REL, max_size=2)
    ):
        rels[rel_id] = Relationship(
            rel_id, rel_type, ids[src % len(ids)], ids[trg % len(ids)], props
        )
    return StreamElement(
        graph=PropertyGraph.of(described.values(), rels.values()), instant=0
    )


def _facts_of(entities):
    for entity in entities:
        properties = tuple(sorted(entity.properties.items()))
        if isinstance(entity, Node):
            yield ("n", entity.id, entity.labels, properties)
        else:
            yield ("r", entity.id, entity.type, entity.src, entity.trg,
                   properties)


def _facts(elements):
    """The distinct (id, description) facts the live elements assert."""
    facts = set()
    for element in elements:
        facts.update(_facts_of(element.graph.nodes.values()))
        facts.update(_facts_of(element.graph.relationships.values()))
    return facts


def assert_reuse(graph, live, pool):
    """A snapshot entity with one live description iterates its
    properties in sorted-key order (the merge's order), and on the reuse
    path — every element asserting that description carries it in that
    order — it is a contributing element's own object, not an equal one
    built by the merge."""
    described = {}
    for fact in _facts(live):
        described.setdefault(fact[:2], []).append(fact)
    for kind, entities, of in (
        ("n", graph.nodes, lambda element: element.graph.nodes),
        ("r", graph.relationships, lambda element: element.graph.relationships),
    ):
        for entity_id, entity in entities.items():
            if len(described[kind, entity_id]) != 1:
                continue
            assert list(entity.properties) == sorted(entity.properties)
            carriers = [
                of(element)[entity_id] for element in pool
                if entity_id in of(element)
                and list(_facts_of([of(element)[entity_id]]))
                == described[kind, entity_id]
            ]
            if all(list(each.properties) == sorted(each.properties)
                   for each in carriers):
                assert any(each is entity for each in carriers)


def _differing(before, after):
    """Ids whose description differs between two snapshot graphs'
    id → entity mappings (appeared, vanished, or merged differently)."""
    def described(entities):
        return {fact[1]: fact for fact in _facts_of(entities.values())}

    old, new = described(before), described(after)
    return {key for key in set(old) | set(new) if old.get(key) != new.get(key)}


class TestNetChangeTracking:
    @given(
        pool=st.lists(overlapping_element(), min_size=2, max_size=8),
        ops=st.lists(st.integers(min_value=0, max_value=63),
                     min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_law_version_changed_ids_and_union_errors(self, pool, ops):
        maintainer = SnapshotMaintainer()
        live = []
        built = PropertyGraph.empty()  # the last snapshot that built
        snapshot = None  # the maintainer's one live graph
        for step, op in enumerate(ops):
            facts_before, version_before = _facts(live), maintainer.version
            if op % 2 == 0 or not live:
                element = pool[op // 2 % len(pool)]
                live.append(element)       # may repeat a live element
                maintainer.add(element)
            else:
                maintainer.remove(live.pop(op // 2 % len(live)))
            # version: a pure count change never moves it, a change of the
            # distinct facts always does (equal versions ⇒ equal snapshots).
            if _facts(live) == facts_before:
                assert maintainer.version == version_before
            else:
                assert maintainer.version > version_before
            if op >= 48:
                # No build this step: the next one nets two steps' changes
                # (a relationship re-arriving with new endpoints as its old
                # description leaves is one in-place upsert).
                continue
            changed_nodes = set(maintainer.changed_nodes)
            changed_rels = set(maintainer.changed_rels)
            seeks = 2 * step >= len(ops)
            try:
                literal = snapshot_graph(live)
            except GraphUnionError:
                # ... raised at exactly the instants the literal union does,
                # and a no-op: the graph is still the last snapshot that
                # built, and the net-change record is kept for the retry.
                with pytest.raises(GraphUnionError):
                    maintainer.graph()
                if snapshot is not None:
                    assert snapshot == built
                    assert_in_place_orders(snapshot, seeks)
                assert maintainer.changed_nodes == changed_nodes
                assert maintainer.changed_rels == changed_rels
                continue
            maintained = maintainer.graph()
            assert snapshot is None or maintained is snapshot
            snapshot = maintained
            assert maintained == literal
            assert_in_place_orders(maintained, seeks)
            assert_reuse(maintained, live, pool)
            # Net-changed ids cover the true symmetric difference against
            # the last snapshot that built (they accumulate across skipped
            # and failed builds).
            assert changed_nodes >= _differing(built.nodes, literal.nodes)
            assert changed_rels >= _differing(built.relationships,
                                              literal.relationships)
            assert not maintainer.changed_nodes
            assert not maintainer.changed_rels
            built = literal
        for element in live:
            maintainer.remove(element)
        assert maintainer.is_empty()
