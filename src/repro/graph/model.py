"""The property graph data model (Definition 3.1) and paths.

A property graph is a tuple ``Γ = (N, R, src, trg, ι, λ, κ)``:

* ``N`` — finite set of node identifiers,
* ``R`` — finite set of relationship identifiers,
* ``src, trg : R → N`` — endpoint functions,
* ``ι : (N ∪ R) × 𝒦 ⇀ 𝒱`` — partial property assignment,
* ``λ : N → 2^ℒ`` — node label sets,
* ``κ : R → 𝒯`` — relationship types.

We realize nodes and relationships as immutable dataclasses carrying their
own labels/type/properties, and :class:`PropertyGraph` as a container
indexed by identifier with adjacency indexes for matching: immutable when
built, mutated in place through one private mutator when live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Collection, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import GraphConsistencyError
from repro.graph.values import NULL

NodeId = int
RelationshipId = int

_EMPTY_MAP: Mapping[str, Any] = MappingProxyType({})


def _freeze_properties(properties: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
    if not properties:
        return _EMPTY_MAP
    return MappingProxyType(dict(properties))


def _same_node(left: "Node", right: "Node") -> bool:
    """Full structural comparison (id, labels, properties)."""
    return (
        left.id == right.id
        and left.labels == right.labels
        and dict(left.properties) == dict(right.properties)
    )


def _same_relationship(left: "Relationship", right: "Relationship") -> bool:
    """Full structural comparison (id, type, endpoints, properties)."""
    return (
        left.id == right.id
        and left.type == right.type
        and (left.src, left.trg) == (right.src, right.trg)
        and dict(left.properties) == dict(right.properties)
    )


@dataclass(frozen=True)
class Node:
    """A node of a property graph: identifier, label set, and properties."""

    id: NodeId
    labels: FrozenSet[str] = frozenset()
    properties: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "properties", _freeze_properties(self.properties))

    def property(self, key: str) -> Any:
        """Property lookup; missing keys yield Cypher ``null``."""
        return self.properties.get(key, NULL)

    def has_label(self, label: str) -> bool:
        return label in self.labels

    def __reduce__(self):
        # Properties are mappingproxy views (not picklable); rebuild from
        # plain dicts so nodes can cross process boundaries.
        return (Node, (self.id, self.labels, dict(self.properties)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))

    def __repr__(self) -> str:
        labels = "".join(f":{label}" for label in sorted(self.labels))
        return f"(n{self.id}{labels} {dict(self.properties)!r})"


@dataclass(frozen=True)
class Relationship:
    """A relationship: identifier, type, endpoints, and properties."""

    id: RelationshipId
    type: str
    src: NodeId
    trg: NodeId
    properties: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "properties", _freeze_properties(self.properties))

    def property(self, key: str) -> Any:
        """Property lookup; missing keys yield Cypher ``null``."""
        return self.properties.get(key, NULL)

    def __reduce__(self):
        return (
            Relationship,
            (self.id, self.type, self.src, self.trg, dict(self.properties)),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))

    def __repr__(self) -> str:
        return (
            f"(n{self.src})-[r{self.id}:{self.type} "
            f"{dict(self.properties)!r}]->(n{self.trg})"
        )


@dataclass(frozen=True)
class PropertyGraph:
    """A property graph per Definition 3.1.

    A *built* graph (:func:`PropertyGraph.of`, :class:`repro.graph.builder.
    GraphBuilder`) is immutable and compact: tuple adjacency and tuple
    label buckets.  A *live* graph (:meth:`_thawed`'s result: the one
    graph a :class:`~repro.stream.snapshot.SnapshotMaintainer` keeps per
    window, and the one a :class:`~repro.graph.store.GraphStore` writes
    through) holds insertion-ordered dict-sets instead, which
    :meth:`_apply` mutates in place.  Readers see read-only views either
    way, and adjacency is indexed so pattern matching is O(degree) per
    expansion.
    """

    nodes: Mapping[NodeId, Node] = field(default_factory=dict)
    relationships: Mapping[RelationshipId, Relationship] = field(default_factory=dict)
    _out: Mapping[NodeId, Collection[RelationshipId]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _in: Mapping[NodeId, Collection[RelationshipId]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _by_label: Mapping[str, Collection[NodeId]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: A live graph's raw maps behind the views above (nodes,
    #: relationships, out, in, by-label); ``None`` when built.
    _live: Optional[Tuple[dict, ...]] = field(
        default=None, repr=False, compare=False
    )

    @staticmethod
    def of(
        nodes: Iterable[Node] = (),
        relationships: Iterable[Relationship] = (),
    ) -> "PropertyGraph":
        """Build a graph from node/relationship collections, validating it."""
        node_map: Dict[NodeId, Node] = {}
        for node in nodes:
            existing = node_map.get(node.id)
            if existing is not None and not _same_node(existing, node):
                raise GraphConsistencyError(f"duplicate node id {node.id}")
            node_map[node.id] = node
        rel_map: Dict[RelationshipId, Relationship] = {}
        out_adj: Dict[NodeId, list] = {nid: [] for nid in node_map}
        in_adj: Dict[NodeId, list] = {nid: [] for nid in node_map}
        for rel in relationships:
            if rel.id in rel_map:
                raise GraphConsistencyError(f"duplicate relationship id {rel.id}")
            if rel.src not in node_map:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling source {rel.src}"
                )
            if rel.trg not in node_map:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling target {rel.trg}"
                )
            rel_map[rel.id] = rel
            out_adj[rel.src].append(rel.id)
            in_adj[rel.trg].append(rel.id)
        by_label: Dict[str, list] = {}
        for node in node_map.values():
            for label in node.labels:
                by_label.setdefault(label, []).append(node.id)
        return PropertyGraph(
            nodes=MappingProxyType(node_map),
            relationships=MappingProxyType(rel_map),
            _out=MappingProxyType({k: tuple(v) for k, v in out_adj.items()}),
            _in=MappingProxyType({k: tuple(v) for k, v in in_adj.items()}),
            _by_label=MappingProxyType(
                {label: tuple(ids) for label, ids in by_label.items()}
            ),
        )

    def _thawed(self) -> "PropertyGraph":
        """A live copy: the same content and enumeration orders, in
        dict-set form."""
        live = (
            dict(self.nodes),
            dict(self.relationships),
            {node_id: dict.fromkeys(ids) for node_id, ids in self._out.items()},
            {node_id: dict.fromkeys(ids) for node_id, ids in self._in.items()},
            {label: dict.fromkeys(ids) for label, ids in self._by_label.items()},
        )
        return PropertyGraph(*map(MappingProxyType, live), _live=live)

    def _apply(
        self,
        nodes: Iterable[Node] = (),
        relationships: Iterable[Relationship] = (),
        removed_nodes: Iterable[NodeId] = (),
        removed_rels: Iterable[RelationshipId] = (),
    ) -> "PropertyGraph":
        """Apply upserts and removals to this live graph in place; returns
        it.  The one graph mutator: work is proportional to the touched
        entities.

        Any batch whose result is a consistent graph is accepted.  A
        removed node's incident relationships must each be removed or
        re-upserted onto endpoints that remain, in the same call; a node
        both removed and upserted is an upsert.  Everything touched is
        validated before the first write, as :meth:`of` would, so a
        :class:`GraphConsistencyError` leaves the graph as it was.

        Ordering invariant: every upserted node moves to the *end* of
        ``nodes`` and of each label bucket it belongs to, in upsert
        order, and a relationship whose endpoints change (or whose old
        endpoint leaves) moves to the end of ``relationships`` and of its
        adjacency.  Every enumeration order (node scans, label scans,
        expansions) is therefore the one :meth:`of` builds from the
        ``nodes`` and ``relationships`` orders — what a pickled copy
        (:meth:`__reduce__`) reproduces, and what keeps a maintained
        snapshot's enumeration deterministic.
        """
        node_map, rel_map, out_adj, in_adj, by_label = self._live
        gone_rels: Dict[RelationshipId, Relationship] = {}
        for rel_id in removed_rels:
            if rel_id not in rel_map or rel_id in gone_rels:
                raise GraphConsistencyError(
                    f"cannot remove unknown relationship {rel_id}"
                )
            gone_rels[rel_id] = rel_map[rel_id]
        leaving: Dict[NodeId, Node] = {}
        for node_id in removed_nodes:
            if node_id not in node_map or node_id in leaving:
                raise GraphConsistencyError(
                    f"cannot remove unknown node {node_id}"
                )
            leaving[node_id] = node_map[node_id]
        upserts: Dict[NodeId, Node] = {}
        for node in nodes:
            upserts[node.id] = node  # dedupe: last upsert of an id wins
            leaving.pop(node.id, None)
        rels = list(relationships)
        moving = None  # upserted relationship ids, built when first needed
        for node_id in leaving:
            for rel_id in (*out_adj[node_id], *in_adj[node_id]):
                if rel_id in gone_rels:
                    continue
                if moving is None:
                    moving = {rel.id for rel in rels}
                if rel_id not in moving:
                    raise GraphConsistencyError(
                        f"removing node {node_id} would dangle its "
                        "relationships"
                    )
        for rel in rels:
            for role, end in (("source", rel.src), ("target", rel.trg)):
                if end not in upserts and (
                    end not in node_map or end in leaving
                ):
                    raise GraphConsistencyError(
                        f"relationship {rel.id} has dangling {role} {end}"
                    )

        def unindex(node: Node) -> None:
            for label in node.labels:
                bucket = by_label[label]
                del bucket[node.id]
                if not bucket:
                    del by_label[label]

        for rel in gone_rels.values():
            del rel_map[rel.id], out_adj[rel.src][rel.id], in_adj[rel.trg][rel.id]
        # Every leaving or moving node leaves its buckets before any
        # re-enters, so a bucket emptied on the way is deleted and
        # re-created at the end, as a rebuild would order it.
        for node in leaving.values():
            del node_map[node.id]
            unindex(node)
        for node_id, node in upserts.items():
            old = node_map.pop(node_id, None)  # move to end of node order
            if old is None:
                out_adj.setdefault(node_id, {})
                in_adj.setdefault(node_id, {})
            else:
                unindex(old)
            node_map[node_id] = node
        for node in upserts.values():
            for label in node.labels:
                by_label.setdefault(label, {})[node.id] = None
        for rel in rels:
            old = rel_map.get(rel.id)
            if old is not None:
                if (old.src, old.trg) == (rel.src, rel.trg):
                    rel_map[rel.id] = rel  # keeps its place everywhere
                    continue
                # New endpoints: to the end of every order, where a
                # rebuild from ``relationships`` order would put it.
                del rel_map[rel.id], out_adj[old.src][rel.id], in_adj[old.trg][rel.id]
            rel_map[rel.id] = rel
            out_adj[rel.src][rel.id] = None
            in_adj[rel.trg][rel.id] = None
        # Leaving nodes drop their adjacency last: the loop above has
        # detached every relationship moving off them (its endpoints
        # differ, since none may move onto a leaving node).
        for node_id in leaving:
            del out_adj[node_id], in_adj[node_id]
        return self

    @staticmethod
    def empty() -> "PropertyGraph":
        return _EMPTY_GRAPH

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def relationship(self, rel_id: RelationshipId) -> Relationship:
        return self.relationships[rel_id]

    def outgoing(self, node_id: NodeId) -> Iterator[Relationship]:
        """Relationships with ``src = node_id``."""
        for rel_id in self._out.get(node_id, ()):
            yield self.relationships[rel_id]

    def incoming(self, node_id: NodeId) -> Iterator[Relationship]:
        """Relationships with ``trg = node_id``."""
        for rel_id in self._in.get(node_id, ()):
            yield self.relationships[rel_id]

    def nodes_with_labels(self, labels: Iterable[str]) -> Iterator[Node]:
        """All nodes whose label set includes every label in ``labels``.

        Served from the per-label index: iterate the rarest label's
        candidates and check the rest — O(|smallest label|), not O(|N|).
        """
        wanted = frozenset(labels)
        if not wanted:
            yield from self.nodes.values()
            return
        candidate_lists = []
        for label in wanted:
            ids = self._by_label.get(label)
            if ids is None:
                return  # some label has no nodes at all
            candidate_lists.append(ids)
        smallest = min(candidate_lists, key=len)
        for node_id in smallest:
            node = self.nodes[node_id]
            if wanted <= node.labels:
                yield node

    # -- the matcher's read contract ------------------------------------------

    def expand_pairs(
        self, node_id: NodeId, direction: str, types: Tuple[str, ...]
    ) -> Iterator[Tuple[Relationship, Node]]:
        """``(relationship, neighbour)`` pairs of one expansion, in
        traversal order: outgoing before incoming, each in adjacency
        order, a self-loop once.

        ``direction`` is ``"out"``, ``"in"`` or ``"any"``; ``types`` is
        the pattern's type tuple (empty = untyped).  Filters that depend
        on the match state (used relationships, pattern properties) stay
        with the matcher.
        """
        rels = self.relationships
        nodes = self.nodes
        if direction != "in":
            for rel_id in self._out.get(node_id, ()):
                rel = rels[rel_id]
                if not types or rel.type in types:
                    yield rel, nodes[rel.trg]
        if direction != "out":
            undirected = direction != "in"
            for rel_id in self._in.get(node_id, ()):
                rel = rels[rel_id]
                if undirected and rel.src == node_id:
                    continue  # self-loop: the outgoing pass yielded it
                if not types or rel.type in types:
                    yield rel, nodes[rel.src]

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (served from the index).

        The public per-label statistic the pattern planner costs its
        anchor choices with.
        """
        return len(self._by_label.get(label, ()))

    def label_counts(self) -> Dict[str, int]:
        """All per-label node counts (cheap cardinality statistics)."""
        return {label: len(ids) for label, ids in self._by_label.items()}

    @property
    def order(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def size(self) -> int:
        """Number of relationships."""
        return len(self.relationships)

    def is_empty(self) -> bool:
        return not self.nodes and not self.relationships

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Node):
            return self.nodes.get(item.id) == item
        if isinstance(item, Relationship):
            return self.relationships.get(item.id) == item
        return False

    def __eq__(self, other: object) -> bool:
        """Structural equality: same elements with the same descriptions.

        (Node/Relationship ``==`` is identity-by-id, as Cypher's value
        equality needs; graph equality must compare the full content.)
        """
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        if set(self.nodes) != set(other.nodes):
            return False
        if set(self.relationships) != set(other.relationships):
            return False
        for node_id, node in self.nodes.items():
            if not _same_node(node, other.nodes[node_id]):
                return False
        for rel_id, rel in self.relationships.items():
            if not _same_relationship(rel, other.relationships[rel_id]):
                return False
        return True

    def __hash__(self) -> int:
        return hash((frozenset(self.nodes), frozenset(self.relationships)))

    def __reduce__(self):
        # mappingproxy fields are not picklable; rebuild (and re-index)
        # from the element collections on the receiving side.
        return (
            _rebuild_graph,
            (tuple(self.nodes.values()), tuple(self.relationships.values())),
        )

    def __repr__(self) -> str:
        return f"PropertyGraph(order={self.order}, size={self.size})"


def _rebuild_graph(
    nodes: Tuple[Node, ...], relationships: Tuple[Relationship, ...]
) -> "PropertyGraph":
    """Unpickle target for :meth:`PropertyGraph.__reduce__`."""
    return PropertyGraph.of(nodes, relationships)


_EMPTY_GRAPH = PropertyGraph.of()


@dataclass(frozen=True)
class Path:
    """A path: alternating nodes and relationships.

    ``nodes`` has length ``len(relationships) + 1``.  A zero-length path is
    a single node.  Relationships may be traversed against their stored
    direction; the sequence in ``nodes`` records the traversal order.
    """

    nodes: Tuple[Node, ...]
    relationships: Tuple[Relationship, ...] = ()

    def __post_init__(self):
        if len(self.nodes) != len(self.relationships) + 1:
            raise GraphConsistencyError(
                "a path needs exactly one more node than relationships"
            )
        for index, rel in enumerate(self.relationships):
            step = {self.nodes[index].id, self.nodes[index + 1].id}
            if step != {rel.src, rel.trg}:
                raise GraphConsistencyError(
                    f"path step {index} does not follow relationship {rel.id}"
                )

    @property
    def length(self) -> int:
        """Path length = number of relationships (Cypher ``length()``)."""
        return len(self.relationships)

    @property
    def start(self) -> Node:
        return self.nodes[0]

    @property
    def end(self) -> Node:
        return self.nodes[-1]

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.nodes)), tuple(reversed(self.relationships)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and tuple(n.id for n in self.nodes) == tuple(n.id for n in other.nodes)
            and tuple(r.id for r in self.relationships)
            == tuple(r.id for r in other.relationships)
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(node.id for node in self.nodes),
                tuple(rel.id for rel in self.relationships),
            )
        )

    def __repr__(self) -> str:
        if not self.relationships:
            return f"<path (n{self.nodes[0].id})>"
        parts = [f"(n{self.nodes[0].id})"]
        for index, rel in enumerate(self.relationships):
            nxt = self.nodes[index + 1]
            if rel.src == self.nodes[index].id:
                parts.append(f"-[r{rel.id}:{rel.type}]->(n{nxt.id})")
            else:
                parts.append(f"<-[r{rel.id}:{rel.type}]-(n{nxt.id})")
        return "<path " + "".join(parts) + ">"
