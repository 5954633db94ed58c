"""Unit tests for snapshot graphs (Definition 5.5) and the incremental
maintainer."""

import pickle
import random

import pytest

from repro.errors import GraphUnionError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_stream
from repro.graph.model import PropertyGraph
from repro.stream.snapshot import SnapshotMaintainer, snapshot_graph
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import figure1_stream, figure2_graph


def _element(instant, nodes, rels=()):
    builder = GraphBuilder()
    for node_id, labels, props in nodes:
        builder.add_node(labels, props, node_id=node_id)
    for rel_id, src, rel_type, trg in rels:
        builder.add_relationship(src, rel_type, trg, rel_id=rel_id)
    return StreamElement(graph=builder.build(), instant=instant)


class TestSnapshotGraph:
    def test_figure2_is_union_of_figure1(self):
        assert snapshot_graph(figure1_stream()) == figure2_graph()

    def test_empty_substream(self):
        assert snapshot_graph([]).is_empty()

    def test_shared_entities_unify(self):
        e1 = _element(1, [(1, ["A"], {"x": 1})])
        e2 = _element(2, [(1, ["A"], {"y": 2})])
        merged = snapshot_graph([e1, e2])
        assert merged.order == 1
        assert dict(merged.node(1).properties) == {"x": 1, "y": 2}


class TestSnapshotMaintainer:
    def test_add_matches_recompute(self):
        elements = figure1_stream()
        maintainer = SnapshotMaintainer()
        for index, element in enumerate(elements):
            maintainer.add(element)
            assert maintainer.graph() == snapshot_graph(elements[: index + 1])

    def test_remove_matches_recompute(self):
        elements = figure1_stream()
        maintainer = SnapshotMaintainer()
        for element in elements:
            maintainer.add(element)
        for index, element in enumerate(elements):
            maintainer.remove(element)
            assert maintainer.graph() == snapshot_graph(elements[index + 1:])
        assert maintainer.is_empty()

    def test_sliding_window_simulation(self):
        elements = random_stream(random.Random(11), 20, shared_node_pool=8)
        maintainer = SnapshotMaintainer()
        window = 5
        for index, element in enumerate(elements):
            maintainer.add(element)
            if index >= window:
                maintainer.remove(elements[index - window])
            expected = snapshot_graph(elements[max(0, index - window + 1): index + 1])
            assert maintainer.graph() == expected

    def test_duplicate_contributions_refcounted(self):
        e1 = _element(1, [(1, ["A"], {"x": 1})])
        e2 = _element(2, [(1, ["A"], {"x": 1})])
        maintainer = SnapshotMaintainer()
        maintainer.add(e1)
        maintainer.add(e2)
        maintainer.remove(e1)
        assert maintainer.graph().order == 1  # e2 still contributes

    def test_remove_unknown_element_raises(self):
        maintainer = SnapshotMaintainer()
        with pytest.raises(GraphUnionError):
            maintainer.remove(_element(1, [(1, ["A"], {})]))

    def test_remove_unknown_contribution_raises(self):
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, [(1, ["A"], {})]))
        with pytest.raises(GraphUnionError):
            maintainer.remove(_element(2, [(1, ["B"], {})]))

    def test_conflicting_labels_across_window_raise(self):
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, [(1, ["A"], {})]))
        maintainer.add(_element(2, [(1, ["B"], {})]))
        with pytest.raises(GraphUnionError):
            maintainer.graph()

    def test_conflicting_properties_across_window_raise(self):
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, [(1, ["A"], {"x": 1})]))
        maintainer.add(_element(2, [(1, ["A"], {"x": 2})]))
        with pytest.raises(GraphUnionError):
            maintainer.graph()

    def test_conflicting_relationship_endpoints_raise(self):
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, [(1, [], {}), (2, [], {})],
                                [(1, 1, "R", 2)]))
        maintainer.add(_element(2, [(1, [], {}), (2, [], {})],
                                [(1, 2, "R", 1)]))
        with pytest.raises(GraphUnionError):
            maintainer.graph()

    def test_graph_is_cached_between_mutations(self):
        """One graph object, mutated in place; the version moves."""
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, [(1, ["A"], {})]))
        first = maintainer.graph()
        version = maintainer.version
        assert maintainer.graph() is first
        maintainer.add(_element(2, [(2, ["B"], {})]))
        assert maintainer.version > version  # the version is its identity
        assert maintainer.graph() is first
        assert sorted(first.nodes) == [1, 2]

    def test_rearrival_with_new_endpoints_keeps_the_pickle_order(self):
        """A relationship id re-arriving with new endpoints in the tick
        its old contribution expires moves to the end of every order, so
        the graph expands as its pickled copy does."""
        nodes = [(1, [], {}), (2, [], {}), (3, [], {})]
        old = _element(1, nodes, [(10, 1, "T", 2)])
        kept = _element(2, nodes, [(11, 1, "T", 3), (12, 1, "T", 2)])
        new = _element(3, nodes, [(10, 1, "T", 3)])
        maintainer = SnapshotMaintainer()
        maintainer.add(old)
        maintainer.add(kept)
        graph = maintainer.graph()
        maintainer.add(new)
        maintainer.remove(old)
        assert maintainer.changed_rels == {10}  # the in-place step
        assert maintainer.graph() is graph
        assert graph == snapshot_graph([kept, new])
        clone = pickle.loads(pickle.dumps(graph))
        for copy in (graph, clone):
            assert [rel.id for rel, _ in copy.expand_pairs(1, "out", ())] \
                == [11, 12, 10]

    def test_failed_build_is_a_no_op(self):
        """A GraphUnionError leaves the graph and the net-change record as
        they were; once the conflicting element expires the graph is the
        literal union again."""
        first = _element(1, [(1, ["A"], {"x": 1}), (2, ["A"], {})])
        conflicting = _element(2, [(1, ["A"], {"x": 2})])
        maintainer = SnapshotMaintainer()
        maintainer.add(first)
        graph = maintainer.graph()
        maintainer.add(conflicting)
        with pytest.raises(GraphUnionError):
            maintainer.graph()
        assert maintainer.changed_nodes == {1}
        assert graph == snapshot_graph([first])
        maintainer.remove(first)
        assert maintainer.graph() is graph
        assert graph == snapshot_graph([conflicting])

    def test_single_sorted_contribution_reuses_the_element_entity(self):
        sorted_props = _element(1, [(1, ["A"], {"a": 1, "b": 2}),
                                    (2, ["A"], {})], [(7, 1, "R", 2)])
        unsorted = _element(2, [(3, ["A"], {"b": 2, "a": 1})])
        maintainer = SnapshotMaintainer()
        maintainer.add(sorted_props)
        maintainer.add(unsorted)
        graph = maintainer.graph()
        assert graph.nodes[1] is sorted_props.graph.nodes[1]
        assert graph.relationships[7] is sorted_props.graph.relationships[7]
        # Out of key order: merged into a fresh node in sorted-key order.
        assert graph.nodes[3] is not unsorted.graph.nodes[3]
        assert list(graph.nodes[3].properties) == ["a", "b"]
        # Two live descriptions: merged.
        maintainer.add(_element(3, [(1, ["A"], {"c": 3})]))
        assert dict(maintainer.graph().nodes[1].properties) \
            == {"a": 1, "b": 2, "c": 3}

    def test_relationship_dedup_across_events(self):
        shared_rel = [(7, 1, "R", 2)]
        nodes = [(1, [], {}), (2, [], {})]
        maintainer = SnapshotMaintainer()
        maintainer.add(_element(1, nodes, shared_rel))
        maintainer.add(_element(2, nodes, shared_rel))
        graph = maintainer.graph()
        assert graph.size == 1
