"""A mutable property graph store.

The query language of Section 3 is read-only, but the paper's ingestion
path (Section 5.2, Listing 4 — the Neo4j Kafka connector) maps stream
events into a *store* via ``MERGE``-style statements.  :class:`GraphStore`
is that store: a mutable counterpart of :class:`PropertyGraph` supporting
the write clauses of :mod:`repro.cypher.updating`.

``graph()`` freezes the current state into an immutable
:class:`PropertyGraph` (cached until the next mutation), which is what
the read side of the engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set

from repro.errors import GraphConsistencyError
from repro.graph.model import Node, NodeId, PropertyGraph, Relationship, \
    RelationshipId
from repro.graph.values import NULL


@dataclass
class _NodeState:
    labels: Set[str] = field(default_factory=set)
    properties: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _RelationshipState:
    type: str = ""
    src: NodeId = 0
    trg: NodeId = 0
    properties: Dict[str, Any] = field(default_factory=dict)


#: Sentinel distinguishing "property absent" from any stored value.
_MISSING = object()


class GraphStore:
    """Mutable node/relationship state with Cypher write semantics."""

    def __init__(self, graph: Optional[PropertyGraph] = None):
        self._nodes: Dict[NodeId, _NodeState] = {}
        self._relationships: Dict[RelationshipId, _RelationshipState] = {}
        # node id → ids of relationships incident to it (either endpoint),
        # so DETACH DELETE is O(degree) instead of a full relationship scan.
        self._incident: Dict[NodeId, Set[RelationshipId]] = {}
        self._next_node_id = 1
        self._next_rel_id = 1
        self._dirty = True
        self._full_rebuild = True
        self._cached = PropertyGraph.empty()
        # Epoch deltas since the last freeze; insertion-ordered so the
        # incremental freeze applies upserts deterministically.
        self._touched_nodes: Dict[NodeId, None] = {}
        self._touched_rels: Dict[RelationshipId, None] = {}
        self._removed_nodes: Set[NodeId] = set()
        self._removed_rels: Set[RelationshipId] = set()
        if graph is not None:
            self.load(graph)

    # -- loading -------------------------------------------------------------

    def load(self, graph: PropertyGraph) -> None:
        """Bulk-load an immutable graph (existing ids preserved)."""
        for node in graph.nodes.values():
            self._nodes[node.id] = _NodeState(
                labels=set(node.labels), properties=dict(node.properties)
            )
            self._next_node_id = max(self._next_node_id, node.id + 1)
        for rel in graph.relationships.values():
            self._relationships[rel.id] = _RelationshipState(
                type=rel.type, src=rel.src, trg=rel.trg,
                properties=dict(rel.properties),
            )
            self._incident.setdefault(rel.src, set()).add(rel.id)
            self._incident.setdefault(rel.trg, set()).add(rel.id)
            self._next_rel_id = max(self._next_rel_id, rel.id + 1)
        self._dirty = True
        self._full_rebuild = True

    # -- reads ------------------------------------------------------------------

    def _freeze_node(self, node_id: NodeId) -> Node:
        state = self._nodes[node_id]
        return Node(id=node_id, labels=frozenset(state.labels),
                    properties=dict(state.properties))

    def _freeze_relationship(self, rel_id: RelationshipId) -> Relationship:
        state = self._relationships[rel_id]
        return Relationship(id=rel_id, type=state.type, src=state.src,
                            trg=state.trg, properties=dict(state.properties))

    def graph(self) -> PropertyGraph:
        """Freeze the current state (cached until the next mutation).

        Snapshots are persistent: a graph returned earlier never changes.
        When only a small fraction of the store changed since the last
        freeze, the new snapshot is the previous one copied and then
        mutated by the epoch delta (:meth:`PropertyGraph.patched`), which
        carries the previous snapshot's property-value index forward
        instead of discarding it.  Bulk loads and large epochs fall back
        to a full rebuild.
        """
        if not self._dirty:
            return self._cached
        base = self._cached
        touched = (len(self._touched_nodes) + len(self._touched_rels)
                   + len(self._removed_nodes) + len(self._removed_rels))
        live = len(self._nodes) + len(self._relationships)
        if self._full_rebuild or 2 * touched >= max(live, 1):
            self._cached = PropertyGraph.of(
                (self._freeze_node(node_id) for node_id in self._nodes),
                (self._freeze_relationship(rel_id)
                 for rel_id in self._relationships),
            )
        else:
            # Reconcile the epoch delta against the previous snapshot:
            # entities created and destroyed within the epoch appear in
            # neither side of the patch.
            self._cached = base.patched(
                nodes=tuple(
                    self._freeze_node(node_id)
                    for node_id in self._touched_nodes
                    if node_id in self._nodes
                ),
                relationships=tuple(
                    self._freeze_relationship(rel_id)
                    for rel_id in self._touched_rels
                    if rel_id in self._relationships
                ),
                removed_nodes=tuple(
                    node_id for node_id in self._removed_nodes
                    if node_id in base.nodes
                ),
                removed_rels=tuple(
                    rel_id for rel_id in self._removed_rels
                    if rel_id in base.relationships
                ),
            )
        self._dirty = False
        self._full_rebuild = False
        self._touched_nodes.clear()
        self._touched_rels.clear()
        self._removed_nodes.clear()
        self._removed_rels.clear()
        return self._cached

    def _touch_node(self, node_id: NodeId) -> None:
        # Move the node to the end of both the live order and the epoch
        # order: the graph mutator moves every upsert to the end of the
        # global node order, so keeping the store's own order in
        # lockstep makes the incremental freeze and a forced full
        # rebuild enumerate byte-identically regardless of which path
        # graph() takes.  (Relationships keep their position unless their
        # endpoints change, which no store write does, so
        # _touch_relationship intentionally does not move.)
        self._nodes[node_id] = self._nodes.pop(node_id)
        self._touched_nodes.pop(node_id, None)
        self._touched_nodes[node_id] = None
        self._dirty = True

    def _touch_relationship(self, rel_id: RelationshipId) -> None:
        self._touched_rels[rel_id] = None
        self._dirty = True

    @property
    def order(self) -> int:
        return len(self._nodes)

    @property
    def size(self) -> int:
        return len(self._relationships)

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def has_relationship(self, rel_id: RelationshipId) -> bool:
        return rel_id in self._relationships

    # -- creation -----------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
    ) -> Node:
        node_id = self._next_node_id
        self._next_node_id += 1
        # Materialize ``labels`` exactly once: it may be a generator, and
        # consuming it twice would store the labels but return a Node
        # without them.
        label_set = frozenset(labels)
        clean = {k: v for k, v in (properties or {}).items() if v is not NULL}
        self._nodes[node_id] = _NodeState(
            labels=set(label_set), properties=clean
        )
        self._touch_node(node_id)
        return Node(id=node_id, labels=label_set, properties=clean)

    def create_relationship(
        self,
        src: NodeId,
        rel_type: str,
        trg: NodeId,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Relationship:
        if src not in self._nodes:
            raise GraphConsistencyError(f"unknown source node {src}")
        if trg not in self._nodes:
            raise GraphConsistencyError(f"unknown target node {trg}")
        rel_id = self._next_rel_id
        self._next_rel_id += 1
        clean = {k: v for k, v in (properties or {}).items() if v is not NULL}
        self._relationships[rel_id] = _RelationshipState(
            type=rel_type, src=src, trg=trg, properties=clean
        )
        self._incident.setdefault(src, set()).add(rel_id)
        self._incident.setdefault(trg, set()).add(rel_id)
        self._touch_relationship(rel_id)
        return Relationship(id=rel_id, type=rel_type, src=src, trg=trg,
                            properties=clean)

    # -- updates -------------------------------------------------------------------

    def _node_state(self, node_id: NodeId) -> _NodeState:
        state = self._nodes.get(node_id)
        if state is None:
            raise GraphConsistencyError(f"unknown node {node_id}")
        return state

    def _rel_state(self, rel_id: RelationshipId) -> _RelationshipState:
        state = self._relationships.get(rel_id)
        if state is None:
            raise GraphConsistencyError(f"unknown relationship {rel_id}")
        return state

    def set_property(self, entity: Any, key: str, value: Any) -> None:
        """SET e.key = value; setting null removes the property (Cypher).

        A write that leaves the stored state unchanged — rewriting an
        identical value, or removing an absent key — is a no-op: it does
        not dirty the cached snapshot and does not enter the epoch
        delta, so ``graph()`` keeps returning the same cached object.
        Identity is type-exact (``1`` does not match ``1.0`` or
        ``true``), and ``NaN`` never matches, so every observable
        rewrite still invalidates.
        """
        if isinstance(entity, Node):
            properties = self._node_state(entity.id).properties
            touch = self._touch_node
        elif isinstance(entity, Relationship):
            properties = self._rel_state(entity.id).properties
            touch = self._touch_relationship
        else:
            raise GraphConsistencyError(
                f"cannot set properties on {entity!r}"
            )
        if value is NULL:
            if key not in properties:
                return
            del properties[key]
        else:
            old = properties.get(key, _MISSING)
            if old is value or (
                old is not _MISSING
                and type(old) is type(value)
                and old == value
            ):
                return
            properties[key] = value
        touch(entity.id)

    def set_properties_from_map(
        self, entity: Any, mapping: Dict[str, Any], replace: bool
    ) -> None:
        """SET e = map (replace) or SET e += map (additive)."""
        if isinstance(entity, Node):
            properties = self._node_state(entity.id).properties
            self._touch_node(entity.id)
        elif isinstance(entity, Relationship):
            properties = self._rel_state(entity.id).properties
            self._touch_relationship(entity.id)
        else:
            raise GraphConsistencyError(
                f"cannot set properties on {entity!r}"
            )
        if replace:
            properties.clear()
        for key, value in mapping.items():
            if value is NULL:
                properties.pop(key, None)
            else:
                properties[key] = value
        self._dirty = True

    def add_labels(self, node: Node, labels: Iterable[str]) -> None:
        self._node_state(node.id).labels.update(labels)
        self._touch_node(node.id)

    def remove_labels(self, node: Node, labels: Iterable[str]) -> None:
        self._node_state(node.id).labels.difference_update(labels)
        self._touch_node(node.id)

    def remove_property(self, entity: Any, key: str) -> None:
        self.set_property(entity, key, NULL)

    # -- deletion -------------------------------------------------------------------

    def _drop_relationship(self, rel_id: RelationshipId) -> None:
        state = self._relationships.pop(rel_id)
        for endpoint in (state.src, state.trg):
            incident = self._incident.get(endpoint)
            if incident is not None:
                incident.discard(rel_id)
                if not incident:
                    del self._incident[endpoint]
        self._touched_rels.pop(rel_id, None)
        self._removed_rels.add(rel_id)

    def delete_relationship(self, rel_id: RelationshipId) -> None:
        if rel_id in self._relationships:
            self._drop_relationship(rel_id)
            self._dirty = True

    def delete_node(self, node_id: NodeId, detach: bool = False) -> None:
        """DELETE / DETACH DELETE a node.

        Incident relationships come from the store's incident-rel index,
        so a detach costs O(degree) — not a scan of every relationship,
        which is quadratic under churny streams.
        """
        if node_id not in self._nodes:
            return
        incident = self._incident.get(node_id, ())
        if incident and not detach:
            raise GraphConsistencyError(
                f"cannot delete node {node_id}: it still has "
                f"{len(incident)} relationship(s); use DETACH DELETE"
            )
        for rel_id in list(incident):
            self._drop_relationship(rel_id)
        del self._nodes[node_id]
        self._touched_nodes.pop(node_id, None)
        self._removed_nodes.add(node_id)
        self._dirty = True
