"""A mutable property graph store.

The query language of Section 3 is read-only, but the paper's ingestion
path (Section 5.2, Listing 4 — the Neo4j Kafka connector) maps stream
events into a *store* via ``MERGE``-style statements.  :class:`GraphStore`
is that store: one live :class:`PropertyGraph` that every write clause of
:mod:`repro.cypher.updating` changes through the graph's one mutator.

``graph()`` returns a persistent snapshot of the current state (cached
until the next write), which is what the read side of the engine
consumes; ``live()`` is the live graph, for reads inside one statement.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.errors import GraphConsistencyError
from repro.graph.model import Node, NodeId, PropertyGraph, Relationship, \
    RelationshipId
from repro.graph.values import NULL

#: Sentinel distinguishing "property absent" from any stored value.
_MISSING = object()


class GraphStore:
    """Mutable node/relationship state with Cypher write semantics."""

    def __init__(self, graph: Optional[PropertyGraph] = None):
        self._graph = PropertyGraph.empty()._thawed()
        self._snapshot: Optional[PropertyGraph] = None
        self._next_node_id = 1
        self._next_rel_id = 1
        if graph is not None:
            self.load(graph)

    def _write(self, nodes: Iterable[Node] = (),
               relationships: Iterable[Relationship] = (),
               removed_nodes: Iterable[NodeId] = (),
               removed_rels: Iterable[RelationshipId] = ()) -> None:
        self._graph._apply(nodes, relationships, removed_nodes, removed_rels)
        self._snapshot = None

    # -- loading -------------------------------------------------------------

    def load(self, graph: PropertyGraph) -> None:
        """Bulk-load an immutable graph (existing ids preserved)."""
        self._write(graph.nodes.values(), graph.relationships.values())
        self._next_node_id = max(self._next_node_id,
                                 max(graph.nodes, default=0) + 1)
        self._next_rel_id = max(self._next_rel_id,
                                max(graph.relationships, default=0) + 1)

    # -- reads ------------------------------------------------------------------

    def graph(self) -> PropertyGraph:
        """The current state (cached until the next write).

        Snapshots are persistent: a graph returned earlier never changes,
        because each is a copy of the live graph, which alone takes the
        writes.  The copy keeps the live graph's enumeration orders.
        """
        if self._snapshot is None:
            self._snapshot = self._graph._thawed()
        return self._snapshot

    def live(self) -> PropertyGraph:
        """The live graph, uncopied: it changes with every write."""
        return self._graph

    @property
    def order(self) -> int:
        return self._graph.order

    @property
    def size(self) -> int:
        return self._graph.size

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._graph.nodes

    def has_relationship(self, rel_id: RelationshipId) -> bool:
        return rel_id in self._graph.relationships

    # -- creation -----------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
    ) -> Node:
        node_id = self._next_node_id
        self._next_node_id += 1
        # Materialize ``labels`` exactly once: it may be a generator.
        clean = {k: v for k, v in (properties or {}).items() if v is not NULL}
        node = Node(id=node_id, labels=frozenset(labels), properties=clean)
        self._write(nodes=(node,))
        return node

    def create_relationship(
        self,
        src: NodeId,
        rel_type: str,
        trg: NodeId,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Relationship:
        if src not in self._graph.nodes:
            raise GraphConsistencyError(f"unknown source node {src}")
        if trg not in self._graph.nodes:
            raise GraphConsistencyError(f"unknown target node {trg}")
        rel_id = self._next_rel_id
        self._next_rel_id += 1
        clean = {k: v for k, v in (properties or {}).items() if v is not NULL}
        rel = Relationship(id=rel_id, type=rel_type, src=src, trg=trg,
                           properties=clean)
        self._write(relationships=(rel,))
        return rel

    # -- updates -------------------------------------------------------------------

    def _current(self, entity: Any):
        """The live version of ``entity`` (a node or relationship)."""
        if isinstance(entity, Node):
            current = self._graph.nodes.get(entity.id)
            kind = "node"
        elif isinstance(entity, Relationship):
            current = self._graph.relationships.get(entity.id)
            kind = "relationship"
        else:
            raise GraphConsistencyError(
                f"cannot set properties on {entity!r}"
            )
        if current is None:
            raise GraphConsistencyError(f"unknown {kind} {entity.id}")
        return current

    def _rewrite(self, current: Any, properties: Dict[str, Any],
                 labels: Optional[Iterable[str]] = None) -> None:
        if isinstance(current, Node):
            self._write(nodes=(Node(
                current.id,
                current.labels if labels is None else labels,
                properties,
            ),))
        else:
            self._write(relationships=(Relationship(
                current.id, current.type, current.src, current.trg,
                properties,
            ),))

    def set_property(self, entity: Any, key: str, value: Any) -> None:
        """SET e.key = value; setting null removes the property (Cypher).

        A write that leaves the stored state unchanged — rewriting an
        identical value, or removing an absent key — is a no-op: it does
        not invalidate the cached snapshot, so ``graph()`` keeps
        returning the same object.  Identity is type-exact (``1`` does
        not match ``1.0`` or ``true``), and ``NaN`` never matches, so
        every observable rewrite still invalidates.
        """
        current = self._current(entity)
        properties = dict(current.properties)
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
        self._rewrite(current, properties)

    def set_properties_from_map(
        self, entity: Any, mapping: Dict[str, Any], replace: bool
    ) -> None:
        """SET e = map (replace) or SET e += map (additive)."""
        current = self._current(entity)
        properties = {} if replace else dict(current.properties)
        for key, value in mapping.items():
            if value is NULL:
                properties.pop(key, None)
            else:
                properties[key] = value
        self._rewrite(current, properties)

    def add_labels(self, node: Node, labels: Iterable[str]) -> None:
        current = self._current(node)
        self._rewrite(current, current.properties, current.labels | set(labels))

    def remove_labels(self, node: Node, labels: Iterable[str]) -> None:
        current = self._current(node)
        self._rewrite(current, current.properties, current.labels - set(labels))

    def remove_property(self, entity: Any, key: str) -> None:
        self.set_property(entity, key, NULL)

    # -- deletion -------------------------------------------------------------------

    def delete_relationship(self, rel_id: RelationshipId) -> None:
        if rel_id in self._graph.relationships:
            self._write(removed_rels=(rel_id,))

    def delete_node(self, node_id: NodeId, detach: bool = False) -> None:
        """DELETE / DETACH DELETE a node.

        Incident relationships come from the live graph's adjacency, so a
        detach costs O(degree) — not a scan of every relationship, which
        is quadratic under churny streams.
        """
        if node_id not in self._graph.nodes:
            return
        incident = [rel.id for rel, _ in
                    self._graph.expand_pairs(node_id, "any", ())]
        if incident and not detach:
            raise GraphConsistencyError(
                f"cannot delete node {node_id}: it still has "
                f"{len(incident)} relationship(s); use DETACH DELETE"
            )
        self._write(removed_nodes=(node_id,), removed_rels=incident)
