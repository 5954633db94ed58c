"""Snapshot graphs (Definition 5.5) and incremental maintenance.

A snapshot graph ``G_τ`` is the union of all graphs in the substream
``S[τ]``.  Two implementations are provided:

* :func:`snapshot_graph` — the literal definition: fold the union.
* :class:`SnapshotMaintainer` — an incremental maintainer that supports
  adding and removing stream elements in O(changed elements) rather than
  recomputing the whole union per evaluation.  Property-based tests assert
  it always agrees with the literal definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

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
        self._node_contribs: Dict[int, Dict[Tuple, int]] = {}
        self._rel_contribs: Dict[int, Dict[Tuple, int]] = {}
        # id(element) → (element, node keys, relationship keys): computed
        # on entry, reused on expiry.  Holding the element pins its id.
        self._keys: Dict[int, Tuple] = {}
        #: Content version: bumped by every mutation that nets a change.
        #: Equal versions ⇒ equal snapshot graphs.
        self.version = 0
        #: Net-changed ids since the last :meth:`graph` build, and the
        #: endpoints of every relationship key that appeared or vanished.
        self.changed_nodes: Set[int] = set()
        self.changed_rels: Set[int] = set()
        self.changed_endpoints: Set[int] = set()
        self._has_cache = False
        self._cached: PropertyGraph = PropertyGraph.empty()

    # -- mutation ------------------------------------------------------------

    def _element_keys(self, element: StreamElement) -> Tuple:
        graph = element.graph
        return (
            element,
            [(node.id, _node_contribution(node))
             for node in graph.nodes.values()],
            [(rel.id, _rel_contribution(rel))
             for rel in graph.relationships.values()],
        )

    def add(self, element: StreamElement) -> None:
        entry = self._keys[id(element)] = self._element_keys(element)
        _element, node_keys, rel_keys = entry
        bumped = self.version + 1
        for node_id, key in node_keys:
            contribs = self._node_contribs.setdefault(node_id, {})
            count = contribs.get(key, 0)
            contribs[key] = count + 1
            if not count:
                self.version = bumped
                self.changed_nodes.add(node_id)
        for rel_id, key in rel_keys:
            contribs = self._rel_contribs.setdefault(rel_id, {})
            count = contribs.get(key, 0)
            contribs[key] = count + 1
            if not count:
                self.version = bumped
                self.changed_rels.add(rel_id)
                self.changed_endpoints.update(key[1:3])

    def remove(self, element: StreamElement) -> None:
        entry = self._keys.pop(id(element), None)
        _element, node_keys, rel_keys = entry or self._element_keys(element)
        bumped = self.version + 1
        for node_id, key in node_keys:
            if self._withdraw(self._node_contribs, node_id, key, "node"):
                self.version = bumped
                self.changed_nodes.add(node_id)
        for rel_id, key in rel_keys:
            if self._withdraw(self._rel_contribs, rel_id, key,
                              "relationship"):
                self.version = bumped
                self.changed_rels.add(rel_id)
                self.changed_endpoints.update(key[1:3])

    @staticmethod
    def _withdraw(table: Dict[int, Dict[Tuple, int]], entity_id: int,
                  key: Tuple, kind: str) -> bool:
        """Withdraw one contribution; True when its key vanished."""
        contribs = table.get(entity_id)
        if not contribs:
            raise GraphUnionError(
                f"removing element that never contributed {kind} {entity_id}"
            )
        count = contribs.get(key, 0)
        if count <= 0:
            raise GraphUnionError(
                f"removing unknown contribution for {kind} {entity_id}"
            )
        if count > 1:
            contribs[key] = count - 1
            return False
        del contribs[key]
        if not contribs:
            del table[entity_id]
        return True

    # -- contribution merging --------------------------------------------------

    def _merge_node(self, node_id: int, contribs: Dict[Tuple, int]) -> Node:
        labels = None
        properties: Dict = {}
        for contrib_labels, contrib_props in contribs:
            if labels is None:
                labels = contrib_labels
            elif contrib_labels != labels:
                raise GraphUnionError(
                    f"node {node_id} has conflicting labels across the window"
                )
            for key, value in contrib_props:
                if key in properties and properties[key] != value:
                    raise GraphUnionError(
                        f"node {node_id} has conflicting values for "
                        f"property {key!r} across the window"
                    )
                properties[key] = value
        return Node(id=node_id, labels=labels, properties=properties)

    def _merge_rel(self, rel_id: int, contribs: Dict[Tuple, int]) -> Relationship:
        rel_type = None
        endpoints = None
        properties: Dict = {}
        for contrib_type, src, trg, contrib_props in contribs:
            if rel_type is None:
                rel_type, endpoints = contrib_type, (src, trg)
            elif (contrib_type, (src, trg)) != (rel_type, endpoints):
                raise GraphUnionError(
                    f"relationship {rel_id} has conflicting type/endpoints "
                    "across the window"
                )
            for key, value in contrib_props:
                if key in properties and properties[key] != value:
                    raise GraphUnionError(
                        f"relationship {rel_id} has conflicting values for "
                        f"property {key!r} across the window"
                    )
                properties[key] = value
        return Relationship(
            id=rel_id,
            type=rel_type,
            src=endpoints[0],
            trg=endpoints[1],
            properties=properties,
        )

    # -- snapshot construction -----------------------------------------------

    def graph(self) -> PropertyGraph:
        """The current snapshot graph (cached until the next net change).

        When a cached snapshot exists, only the net-changed entities are
        re-merged and patched in
        (:meth:`~repro.graph.model.PropertyGraph.patched`) — the
        per-evaluation maintenance step is O(net change), not O(window).
        """
        changed_nodes, changed_rels = self.changed_nodes, self.changed_rels
        if self._has_cache and not changed_nodes and not changed_rels:
            return self._cached
        changed = len(changed_nodes) + len(changed_rels)
        live = len(self._node_contribs) + len(self._rel_contribs)
        if not self._has_cache or 2 * changed >= live:
            # No base to patch (or most of it changed): build from scratch.
            nodes = [
                self._merge_node(node_id, contribs)
                for node_id, contribs in self._node_contribs.items()
            ]
            relationships = [
                self._merge_rel(rel_id, contribs)
                for rel_id, contribs in self._rel_contribs.items()
            ]
            self._cached = PropertyGraph.of(nodes, relationships)
        else:
            self._cached = self._cached.patched(
                nodes=[
                    self._merge_node(node_id, self._node_contribs[node_id])
                    for node_id in changed_nodes
                    if node_id in self._node_contribs
                ],
                relationships=[
                    self._merge_rel(rel_id, self._rel_contribs[rel_id])
                    for rel_id in changed_rels
                    if rel_id in self._rel_contribs
                ],
                removed_nodes=[
                    node_id
                    for node_id in changed_nodes
                    if node_id not in self._node_contribs
                    and node_id in self._cached.nodes
                ],
                removed_rels=[
                    rel_id
                    for rel_id in changed_rels
                    if rel_id not in self._rel_contribs
                    and rel_id in self._cached.relationships
                ],
            )
        self._has_cache = True
        changed_nodes.clear()
        changed_rels.clear()
        self.changed_endpoints.clear()
        return self._cached

    def is_empty(self) -> bool:
        return not self._node_contribs and not self._rel_contribs
