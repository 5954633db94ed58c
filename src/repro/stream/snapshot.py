"""Snapshot graphs (Definition 5.5) and incremental maintenance.

A snapshot graph ``G_τ`` is the union of all graphs in the substream
``S[τ]``.  Two implementations are provided:

* :func:`snapshot_graph` — the literal definition: fold the union.
* :class:`SnapshotMaintainer` — an incremental maintainer that supports
  adding and removing stream elements in O(changed elements) rather than
  recomputing the whole union per evaluation, and keeps one live graph
  that it mutates in place.  Property-based tests assert it always agrees
  with the literal definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.errors import GraphUnionError
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.graph.union import union_all
from repro.stream.stream import StreamElement


def snapshot_graph(elements: Iterable[StreamElement]) -> PropertyGraph:
    """The literal Definition 5.5: union of all substream graphs."""
    return union_all(element.graph for element in elements)


def _node_contribution(node: Node) -> Tuple:
    return (node.labels, tuple(sorted(node.properties.items())))


def _rel_contribution(rel: Relationship) -> Tuple:
    return (rel.type, rel.src, rel.trg, tuple(sorted(rel.properties.items())))


class SnapshotMaintainer:
    """Incrementally maintained union of a changing set of stream elements.

    Each element contributes a bag of (id → description) facts; the
    current snapshot node/relationship for an id is the UNA-consistent
    combination of the *distinct* live contributions for that id.
    Removing an element withdraws its contributions and drops ids whose
    contribution count reaches zero.

    Change is tracked **net**: an id is changed only when a distinct
    contribution key appears for the first time or disappears for the
    last.  A count bump on a key that is already live changes nothing a
    merge reads, so it marks nothing and leaves :attr:`version` alone.
    """

    def __init__(self):
        # id → {contribution key → [count, entity]}: the entity is the one
        # the key's first live contributor carried; a merge of that key
        # alone reuses it.
        self._node_contribs: Dict[int, Dict[Tuple, list]] = {}
        self._rel_contribs: Dict[int, Dict[Tuple, list]] = {}
        # id(element) → (element, node keys, relationship keys): computed
        # on entry, reused on expiry.  Holding the element pins its id.
        self._keys: Dict[int, Tuple] = {}
        #: Content version: bumped by every mutation that nets a change.
        #: Equal versions ⇒ equal snapshot graphs.
        self.version = 0
        #: Net-changed ids since the last :meth:`graph` build.
        self.changed_nodes: Set[int] = set()
        self.changed_rels: Set[int] = set()
        #: The one live snapshot graph, from the first :meth:`graph` on.
        self._graph: Optional[PropertyGraph] = None

    # -- mutation ------------------------------------------------------------

    def _element_keys(self, element: StreamElement) -> Tuple:
        graph = element.graph
        return (
            element,
            [(node.id, _node_contribution(node), node)
             for node in graph.nodes.values()],
            [(rel.id, _rel_contribution(rel), rel)
             for rel in graph.relationships.values()],
        )

    def add(self, element: StreamElement) -> None:
        entry = self._keys[id(element)] = self._element_keys(element)
        _element, node_keys, rel_keys = entry
        bumped = self.version + 1
        for node_id, key, node in node_keys:
            contribs = self._node_contribs.setdefault(node_id, {})
            slot = contribs.get(key)
            if slot is None:
                contribs[key] = [1, node]
                self.version = bumped
                self.changed_nodes.add(node_id)
            else:
                slot[0] += 1
        for rel_id, key, rel in rel_keys:
            contribs = self._rel_contribs.setdefault(rel_id, {})
            slot = contribs.get(key)
            if slot is None:
                contribs[key] = [1, rel]
                self.version = bumped
                self.changed_rels.add(rel_id)
            else:
                slot[0] += 1

    def remove(self, element: StreamElement) -> None:
        entry = self._keys.pop(id(element), None)
        _element, node_keys, rel_keys = entry or self._element_keys(element)
        bumped = self.version + 1
        for node_id, key, _node in node_keys:
            if self._withdraw(self._node_contribs, node_id, key, "node"):
                self.version = bumped
                self.changed_nodes.add(node_id)
        for rel_id, key, _rel in rel_keys:
            if self._withdraw(self._rel_contribs, rel_id, key,
                              "relationship"):
                self.version = bumped
                self.changed_rels.add(rel_id)

    @staticmethod
    def _withdraw(table: Dict[int, Dict[Tuple, list]], entity_id: int,
                  key: Tuple, kind: str) -> bool:
        """Withdraw one contribution; True when its key vanished."""
        contribs = table.get(entity_id)
        if not contribs:
            raise GraphUnionError(
                f"removing element that never contributed {kind} {entity_id}"
            )
        slot = contribs.get(key)
        if slot is None:
            raise GraphUnionError(
                f"removing unknown contribution for {kind} {entity_id}"
            )
        if slot[0] > 1:
            slot[0] -= 1
            return False
        del contribs[key]
        if not contribs:
            del table[entity_id]
        return True

    # -- contribution merging --------------------------------------------------

    @staticmethod
    def _merge(entity_id: int, contribs: Dict[Tuple, list], kind: str,
               head: str, build):
        """One id's merged entity.  A key is a head (labels, or type and
        endpoints) that every live contribution must share, then sorted
        property items that must agree where they overlap."""
        if len(contribs) == 1:
            # One description: its entity, if its properties already
            # iterate in the merged (sorted-key) order, is the merge.
            key, (_count, entity) = next(iter(contribs.items()))
            if tuple(entity.properties.items()) == key[-1]:
                return entity
        first = None
        properties: Dict = {}
        for key in contribs:
            if first is None:
                first = key[:-1]
            elif key[:-1] != first:
                raise GraphUnionError(
                    f"{kind} {entity_id} has conflicting {head} across the "
                    "window"
                )
            for name, value in key[-1]:
                if name in properties and properties[name] != value:
                    raise GraphUnionError(
                        f"{kind} {entity_id} has conflicting values for "
                        f"property {name!r} across the window"
                    )
                properties[name] = value
        return build(entity_id, *first, properties)

    def _merge_node(self, node_id: int) -> Node:
        return self._merge(node_id, self._node_contribs[node_id], "node",
                           "labels", Node)

    def _merge_rel(self, rel_id: int) -> Relationship:
        return self._merge(rel_id, self._rel_contribs[rel_id], "relationship",
                           "type/endpoints", Relationship)

    # -- snapshot construction -----------------------------------------------

    def graph(self) -> PropertyGraph:
        """The current snapshot graph: after the first build, always the
        same live graph, mutated in place.

        Only the net-changed entities are re-merged and applied
        (:meth:`~repro.graph.model.PropertyGraph._apply`): the
        per-evaluation step is O(net change), not O(window).  When the
        net change covers half the live entities or more, the graph is
        laid out afresh in contribution order, in place.  Every merge
        runs before the first write, so a :class:`GraphUnionError`
        leaves the graph and the net-change record as they were.
        """
        changed_nodes, changed_rels = self.changed_nodes, self.changed_rels
        graph = self._graph
        if graph is not None and not changed_nodes and not changed_rels:
            return graph
        node_contribs, rel_contribs = self._node_contribs, self._rel_contribs
        fresh = graph is None
        if fresh:
            graph = PropertyGraph.empty()._thawed()
        if fresh or 2 * (len(changed_nodes) + len(changed_rels)) \
                >= len(node_contribs) + len(rel_contribs):
            node_ids, rel_ids = node_contribs, rel_contribs
            gone_nodes, gone_rels = tuple(graph.nodes), tuple(graph.relationships)
        else:
            node_ids, rel_ids = changed_nodes, changed_rels
            gone_nodes = [node_id for node_id in changed_nodes
                          if node_id not in node_contribs and node_id in graph.nodes]
            gone_rels = [rel_id for rel_id in changed_rels
                         if rel_id not in rel_contribs and rel_id in graph.relationships]
        nodes = [self._merge_node(node_id) for node_id in node_ids
                 if node_id in node_contribs]
        relationships = [self._merge_rel(rel_id) for rel_id in rel_ids
                         if rel_id in rel_contribs]
        self._graph = graph._apply(nodes, relationships, gone_nodes, gone_rels)
        changed_nodes.clear()
        changed_rels.clear()
        return graph

    def is_empty(self) -> bool:
        return not self._node_contribs and not self._rel_contribs
