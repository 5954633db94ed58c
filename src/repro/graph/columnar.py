"""Interned, array-backed columnar graph core (ROADMAP item 2).

:class:`ColumnarGraph` is a drop-in snapshot implementation behind the
same public surface as :class:`~repro.graph.model.PropertyGraph` — the
matcher, the physical operators, the delta layer, and the parallel
workers all consume it transparently because they only touch the public
graph API.  The layout is columnar instead of dict-of-dicts:

* **Interning** — every node id is assigned a dense *slot* (an index
  into parallel arrays) by an interning table; relationships get dense
  *rel-slots* the same way.
* **CSR adjacency** — per-node outgoing/incoming relationship lists are
  stored as two flat ``array('q')`` pairs (offsets + rel-slot values),
  one pair for the all-type view and lazily one pair per relationship
  type (stably filtered, so per-type enumeration preserves the global
  traversal order).
* **Label / property columns** — per-label slot arrays plus the same
  lazily-built ``(label, key) → {value bucket → node ids}`` equality
  columns the reference graph maintains, all listing members in the one
  global node order.
* **O(delta) overlays** — :meth:`ColumnarGraph.patched` layers an
  overlay (appended/overridden nodes and relationships, dead slots,
  per-node adjacency and per-label bucket overrides) over the shared
  immutable core instead of flat-copying every index dict the way the
  reference ``patched`` does; when the overlay grows past half the core
  it is compacted into a fresh core, keeping the amortized per-patch
  cost proportional to the delta.

The single load-bearing invariant is the *move-to-end global ordering*
documented on :meth:`PropertyGraph.patched`: upserted nodes move to the
end of the node order and of every label/property bucket, relationship
upserts keep their enumeration position (adjacency moves to the end of
the endpoint rows only when endpoints change).  Every enumeration this
class exposes — node scans, label scans, index seeks, CSR expansions —
replays exactly the sequence the reference graph would produce, which is
what makes emissions byte-identical across backends (verified by the
hypothesis backend-axis matrix in ``tests/properties/``).

On top of layout, the class memoizes the hot read paths per immutable
snapshot instance: :meth:`expand_pairs` (consumed by
:class:`~repro.cypher.matcher.PatternMatcher` and therefore by the
physical ExpandHop/VarLengthExpand operators), label-scan tuples, and
index-seek tuples.  ``__reduce__`` ships a compact column form (id
arrays + pooled label sets / type names) across process boundaries and
rebuilds via :meth:`of`, mirroring the reference pickle contract.
"""

from __future__ import annotations

from array import array
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import EngineError, GraphConsistencyError
from repro.graph.model import (
    Node,
    NodeId,
    PropertyGraph,
    Relationship,
    RelationshipId,
    _prop_entries,
    _same_node,
    _same_relationship,
)
from repro.graph.store import GraphStore
from repro.graph.values import property_index_key

__all__ = [
    "ColumnarGraph",
    "ColumnarStore",
    "GRAPH_BACKENDS",
    "resolve_backend",
    "resolve_backend_name",
]


class _Core:
    """The immutable compacted column store one or more graphs share.

    ``node_objs``/``node_ids`` are parallel slot-indexed arrays;
    ``slot_of`` is the interning table.  Adjacency is CSR: for node slot
    ``s``, its outgoing rel-slots are
    ``out_rslots[out_off[s]:out_off[s + 1]]``, in traversal order.
    ``by_label`` maps each label to the member slots in global node
    order.
    """

    __slots__ = (
        "node_objs", "node_ids", "slot_of",
        "rel_objs", "rel_ids", "rslot_of",
        "out_off", "out_rslots", "in_off", "in_rslots",
        "by_label",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        relationships: Iterable[Relationship],
        out_adj: Mapping[NodeId, Iterable[RelationshipId]],
        in_adj: Mapping[NodeId, Iterable[RelationshipId]],
    ):
        self.node_objs: List[Node] = list(nodes)
        self.node_ids = array("q", (node.id for node in self.node_objs))
        self.slot_of: Dict[NodeId, int] = {
            node_id: slot for slot, node_id in enumerate(self.node_ids)
        }
        self.rel_objs: List[Relationship] = list(relationships)
        self.rel_ids = array("q", (rel.id for rel in self.rel_objs))
        self.rslot_of: Dict[RelationshipId, int] = {
            rel_id: rslot for rslot, rel_id in enumerate(self.rel_ids)
        }
        rslot_of = self.rslot_of
        for direction, adjacency in (("out", out_adj), ("in", in_adj)):
            offsets = array("q", [0])
            rslots = array("q")
            total = 0
            for node_id in self.node_ids:
                for rel_id in adjacency.get(node_id, ()):
                    rslots.append(rslot_of[rel_id])
                    total += 1
                offsets.append(total)
            if direction == "out":
                self.out_off, self.out_rslots = offsets, rslots
            else:
                self.in_off, self.in_rslots = offsets, rslots
        by_label: Dict[str, array] = {}
        for slot, node in enumerate(self.node_objs):
            for label in node.labels:
                bucket = by_label.get(label)
                if bucket is None:
                    bucket = by_label[label] = array("q")
                bucket.append(slot)
        self.by_label = by_label


class _NodesView(Mapping):
    """Mapping view over a graph's live nodes in global node order."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "ColumnarGraph"):
        self._graph = graph

    def __getitem__(self, node_id: NodeId) -> Node:
        node = self._graph._node_or_none(node_id)
        if node is None:
            raise KeyError(node_id)
        return node

    def get(self, node_id: NodeId, default: Any = None) -> Any:
        node = self._graph._node_or_none(node_id)
        return default if node is None else node

    def __contains__(self, node_id: object) -> bool:
        return self._graph._node_or_none(node_id) is not None

    def __len__(self) -> int:
        return self._graph._n_nodes

    def __iter__(self) -> Iterator[NodeId]:
        graph = self._graph
        dead = graph._dead_slots
        for slot, node_id in enumerate(graph._core.node_ids):
            if slot not in dead:
                yield node_id
        yield from graph._ov_nodes

    def values(self):  # type: ignore[override]
        graph = self._graph
        dead = graph._dead_slots
        for slot, node in enumerate(graph._core.node_objs):
            if slot not in dead:
                yield node
        yield from graph._ov_nodes.values()

    def items(self):  # type: ignore[override]
        for node in self.values():
            yield node.id, node


class _RelationshipsView(Mapping):
    """Mapping view over live relationships in enumeration order."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "ColumnarGraph"):
        self._graph = graph

    def __getitem__(self, rel_id: RelationshipId) -> Relationship:
        rel = self._graph._rel_or_none(rel_id)
        if rel is None:
            raise KeyError(rel_id)
        return rel

    def get(self, rel_id: RelationshipId, default: Any = None) -> Any:
        rel = self._graph._rel_or_none(rel_id)
        return default if rel is None else rel

    def __contains__(self, rel_id: object) -> bool:
        return self._graph._rel_or_none(rel_id) is not None

    def __len__(self) -> int:
        return self._graph._n_rels

    def __iter__(self) -> Iterator[RelationshipId]:
        for rel in self.values():
            yield rel.id

    def values(self):  # type: ignore[override]
        graph = self._graph
        dead = graph._dead_rslots
        over = graph._rel_over
        for rslot, rel in enumerate(graph._core.rel_objs):
            if rslot not in dead:
                updated = over.get(rslot)
                yield rel if updated is None else updated
        yield from graph._ov_rels.values()

    def items(self):  # type: ignore[override]
        for rel in self.values():
            yield rel.id, rel


class ColumnarGraph:
    """An immutable property graph over a shared columnar core + overlay.

    Public surface mirrors :class:`~repro.graph.model.PropertyGraph`
    (duck-typed, not a subclass — subclassing would force populating the
    reference dict fields and forfeit the layout).  See the module
    docstring for the layout and the ordering invariant.
    """

    __slots__ = (
        "_core",
        "_ov_nodes", "_dead_slots", "_n_nodes",
        "_ov_rels", "_rel_over", "_dead_rslots", "_n_rels",
        "_ov_out", "_ov_in", "_ov_by_label", "_by_type",
        "_prop_index",
        "_nodes_view", "_rels_view",
        "_expand_cache", "_labels_cache", "_seek_cache", "_typed_csr",
        "_degree_cols", "candidate_sets",
    )

    def __init__(
        self,
        core: _Core,
        ov_nodes: Dict[NodeId, Node],
        dead_slots: Set[int],
        ov_rels: Dict[RelationshipId, Relationship],
        rel_over: Dict[int, Relationship],
        dead_rslots: Set[int],
        ov_out: Dict[NodeId, Tuple[RelationshipId, ...]],
        ov_in: Dict[NodeId, Tuple[RelationshipId, ...]],
        ov_by_label: Dict[str, Tuple[NodeId, ...]],
        by_type: Dict[str, int],
        n_nodes: int,
        n_rels: int,
        prop_index: Optional[Dict[Tuple[str, str], Dict[tuple, tuple]]],
    ):
        self._core = core
        self._ov_nodes = ov_nodes
        self._dead_slots = dead_slots
        self._ov_rels = ov_rels
        self._rel_over = rel_over
        self._dead_rslots = dead_rslots
        self._ov_out = ov_out
        self._ov_in = ov_in
        self._ov_by_label = ov_by_label
        self._by_type = by_type
        self._n_nodes = n_nodes
        self._n_rels = n_rels
        self._prop_index = prop_index
        self._nodes_view = _NodesView(self)
        self._rels_view = _RelationshipsView(self)
        self._expand_cache: Dict[tuple, tuple] = {}
        self._labels_cache: Dict[frozenset, tuple] = {}
        self._seek_cache: Dict[tuple, tuple] = {}
        self._typed_csr: Dict[Tuple[str, str], Tuple[array, array]] = {}
        self._degree_cols: Optional[Tuple[array, array]] = None
        # Per-snapshot memo of repro.cypher.vectorized candidate sets (see
        # PropertyGraph.candidate_sets): a new graph object — patched()
        # overlay or compaction — starts empty, which is what invalidates
        # the sets across graph versions.
        self.candidate_sets: Dict[Any, Any] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def of(
        cls,
        nodes: Iterable[Node] = (),
        relationships: Iterable[Relationship] = (),
    ) -> "ColumnarGraph":
        """Build and validate a graph (same contract as the reference)."""
        node_map: Dict[NodeId, Node] = {}
        for node in nodes:
            existing = node_map.get(node.id)
            if existing is not None and not _same_node(existing, node):
                raise GraphConsistencyError(f"duplicate node id {node.id}")
            node_map[node.id] = node
        rel_map: Dict[RelationshipId, Relationship] = {}
        out_adj: Dict[NodeId, list] = {}
        in_adj: Dict[NodeId, list] = {}
        by_type: Dict[str, int] = {}
        for rel in relationships:
            if rel.id in rel_map:
                raise GraphConsistencyError(
                    f"duplicate relationship id {rel.id}"
                )
            if rel.src not in node_map:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling source {rel.src}"
                )
            if rel.trg not in node_map:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling target {rel.trg}"
                )
            rel_map[rel.id] = rel
            out_adj.setdefault(rel.src, []).append(rel.id)
            in_adj.setdefault(rel.trg, []).append(rel.id)
            by_type[rel.type] = by_type.get(rel.type, 0) + 1
        core = _Core(node_map.values(), rel_map.values(), out_adj, in_adj)
        return cls(
            core, {}, set(), {}, {}, set(), {}, {}, {},
            by_type, len(node_map), len(rel_map), None,
        )

    @staticmethod
    def empty() -> "ColumnarGraph":
        return _EMPTY_COLUMNAR

    # -- low-level lookups -------------------------------------------------

    def _node_or_none(self, node_id: Any) -> Optional[Node]:
        node = self._ov_nodes.get(node_id)
        if node is not None:
            return node
        slot = self._core.slot_of.get(node_id)
        if slot is None or slot in self._dead_slots:
            return None
        return self._core.node_objs[slot]

    def _rel_or_none(self, rel_id: Any) -> Optional[Relationship]:
        rel = self._ov_rels.get(rel_id)
        if rel is not None:
            return rel
        rslot = self._core.rslot_of.get(rel_id)
        if rslot is None or rslot in self._dead_rslots:
            return None
        updated = self._rel_over.get(rslot)
        return self._core.rel_objs[rslot] if updated is None else updated

    def _row_slots(self, node_id: NodeId, out: bool) -> Optional[array]:
        """The core CSR row for a live, non-overridden node (else None)."""
        slot = self._core.slot_of.get(node_id)
        if slot is None:
            return None
        if slot in self._dead_slots and node_id not in self._ov_nodes:
            return None
        core = self._core
        if out:
            return core.out_rslots[core.out_off[slot]:core.out_off[slot + 1]]
        return core.in_rslots[core.in_off[slot]:core.in_off[slot + 1]]

    def _adj_ids(self, node_id: NodeId, out: bool) -> Tuple[RelationshipId, ...]:
        """Current adjacency rel ids of ``node_id`` (override or core)."""
        override = (self._ov_out if out else self._ov_in).get(node_id)
        if override is not None:
            return override
        row = self._row_slots(node_id, out)
        if row is None:
            return ()
        rel_ids = self._core.rel_ids
        return tuple(rel_ids[rslot] for rslot in row)

    def _iter_adj(self, node_id: NodeId, out: bool) -> Iterator[Relationship]:
        override = (self._ov_out if out else self._ov_in).get(node_id)
        if override is not None:
            for rel_id in override:
                rel = self._rel_or_none(rel_id)
                if rel is not None:
                    yield rel
            return
        row = self._row_slots(node_id, out)
        if row is None:
            return
        rel_objs = self._core.rel_objs
        over = self._rel_over
        for rslot in row:
            updated = over.get(rslot)
            yield rel_objs[rslot] if updated is None else updated

    def _bucket_ids(self, label: str) -> Tuple[NodeId, ...]:
        override = self._ov_by_label.get(label)
        if override is not None:
            return override
        slots = self._core.by_label.get(label)
        if slots is None:
            return ()
        node_ids = self._core.node_ids
        return tuple(node_ids[slot] for slot in slots)

    # -- public accessors --------------------------------------------------

    @property
    def nodes(self) -> Mapping[NodeId, Node]:
        return self._nodes_view

    @property
    def relationships(self) -> Mapping[RelationshipId, Relationship]:
        return self._rels_view

    def node(self, node_id: NodeId) -> Node:
        node = self._node_or_none(node_id)
        if node is None:
            raise KeyError(node_id)
        return node

    def relationship(self, rel_id: RelationshipId) -> Relationship:
        rel = self._rel_or_none(rel_id)
        if rel is None:
            raise KeyError(rel_id)
        return rel

    def outgoing(self, node_id: NodeId) -> Iterator[Relationship]:
        """Relationships with ``src = node_id``."""
        return self._iter_adj(node_id, out=True)

    def incoming(self, node_id: NodeId) -> Iterator[Relationship]:
        """Relationships with ``trg = node_id``."""
        return self._iter_adj(node_id, out=False)

    def incident(self, node_id: NodeId) -> Iterator[Relationship]:
        """All relationships touching ``node_id`` (undirected view).

        A self-loop appears in both adjacency rows but is yielded exactly
        once, matching :meth:`PropertyGraph.incident`.
        """
        seen = set()
        for rel in self.outgoing(node_id):
            seen.add(rel.id)
            yield rel
        for rel in self.incoming(node_id):
            if rel.id not in seen:
                yield rel

    def nodes_with_labels(self, labels: Iterable[str]) -> Iterator[Node]:
        """All nodes carrying every label, in global node order (memoized)."""
        wanted = frozenset(labels)
        if not wanted:
            yield from self._nodes_view.values()
            return
        cached = self._labels_cache.get(wanted)
        if cached is None:
            candidate_lists: Optional[List[Tuple[NodeId, ...]]] = []
            for label in wanted:
                ids = self._bucket_ids(label)
                if not ids:
                    candidate_lists = None
                    break
                candidate_lists.append(ids)
            if candidate_lists is None:
                cached = ()
            else:
                smallest = min(candidate_lists, key=len)
                cached = tuple(
                    node
                    for node in map(self._node_or_none, smallest)
                    if wanted <= node.labels
                )
            self._labels_cache[wanted] = cached
        yield from cached

    def _prop_buckets(
        self,
    ) -> Dict[Tuple[str, str], Dict[tuple, tuple]]:
        index = self._prop_index
        if index is None:
            index = {}
            for node in self._nodes_view.values():
                for label_key, value_key in _prop_entries(node):
                    buckets = index.setdefault(label_key, {})
                    buckets[value_key] = buckets.get(value_key, ()) + (node.id,)
            self._prop_index = index
        return index

    def nodes_with_property(
        self, label: str, key: str, value: Any
    ) -> Optional[Tuple[Node, ...]]:
        """Index seek from the property columns (superset contract, memoized).

        Same contract as :meth:`PropertyGraph.nodes_with_property`:
        ``None`` for unindexable values, otherwise a superset of the true
        matches in global node order.
        """
        value_key = property_index_key(value)
        if value_key is None:
            return None
        cache_key = (label, key, value_key)
        cached = self._seek_cache.get(cache_key)
        if cached is None:
            ids = self._prop_buckets().get((label, key), {}).get(value_key, ())
            cached = tuple(self._node_or_none(node_id) for node_id in ids)
            self._seek_cache[cache_key] = cached
        return cached

    def label_id_column(self, label: str) -> Tuple[NodeId, ...]:
        """The node-id column for ``label``, in global node order.

        The raw per-label column the vectorized candidate pruner
        (:mod:`repro.cypher.vectorized`) intersects — exact, not a
        superset: every listed node carries ``label`` and no carrier is
        missing.
        """
        return self._bucket_ids(label)

    def property_id_column(
        self, label: str, key: str, value_key: tuple
    ) -> Tuple[NodeId, ...]:
        """The node-id column for one equality-index bucket, in global
        node order.

        ``value_key`` is a type-tagged bucket key from
        :func:`~repro.graph.values.property_index_key`.  Same superset
        contract as :meth:`nodes_with_property`: the bucket lists every
        ``label``-carrying node whose ``key`` may Cypher-equal the
        bucketed value (``1`` and ``1.0`` share a bucket), so callers
        must re-check with ``cypher_equals``.
        """
        return self._prop_buckets().get((label, key), {}).get(value_key, ())

    def degree_columns(self) -> Tuple[array, array]:
        """Exact ``(out_degree, in_degree)`` arrays in global node order.

        Memoized per snapshot; overlay adjacency is folded in, so the
        arrays stay exact across ``patched()`` views.  Cardinality food
        for expansion-cost heuristics and benchmark metadata.
        """
        cached = self._degree_cols
        if cached is None:
            out_col = array("q")
            in_col = array("q")
            for node_id in self._nodes_view:
                out_col.append(sum(1 for _ in self.outgoing(node_id)))
                in_col.append(sum(1 for _ in self.incoming(node_id)))
            cached = (out_col, in_col)
            self._degree_cols = cached
        return cached

    def rel_type_count(self, rel_type: str) -> int:
        return self._by_type.get(rel_type, 0)

    def rel_type_counts(self) -> Dict[str, int]:
        return dict(self._by_type)

    def label_count(self, label: str) -> int:
        override = self._ov_by_label.get(label)
        if override is not None:
            return len(override)
        slots = self._core.by_label.get(label)
        return 0 if slots is None else len(slots)

    def label_counts(self) -> Dict[str, int]:
        counts = {
            label: len(slots) for label, slots in self._core.by_label.items()
        }
        for label, ids in self._ov_by_label.items():
            if ids:
                counts[label] = len(ids)
            else:
                counts.pop(label, None)
        return counts

    @property
    def order(self) -> int:
        """Number of nodes."""
        return self._n_nodes

    @property
    def size(self) -> int:
        """Number of relationships."""
        return self._n_rels

    def is_empty(self) -> bool:
        return self._n_nodes == 0 and self._n_rels == 0

    def degree(self, node_id: NodeId) -> int:
        total = 0
        for out in (True, False):
            override = (self._ov_out if out else self._ov_in).get(node_id)
            if override is not None:
                total += len(override)
            else:
                row = self._row_slots(node_id, out)
                total += 0 if row is None else len(row)
        return total

    # -- columnar fast paths -----------------------------------------------

    def _typed_row(
        self, direction: str, rel_type: str
    ) -> Tuple[array, array]:
        """The lazily-built per-type CSR pair for one direction.

        A stable filter of the all-type CSR (with relationship updates
        applied), so per-type rows preserve the relative traversal order
        of the unfiltered rows — typed expansion enumerates the exact
        subsequence the interpreted filter would.
        """
        key = (direction, rel_type)
        pair = self._typed_csr.get(key)
        if pair is None:
            core = self._core
            if direction == "out":
                src_off, src_rslots = core.out_off, core.out_rslots
            else:
                src_off, src_rslots = core.in_off, core.in_rslots
            over = self._rel_over
            rel_objs = core.rel_objs
            offsets = array("q", [0])
            rslots = array("q")
            total = 0
            for slot in range(len(core.node_objs)):
                for rslot in src_rslots[src_off[slot]:src_off[slot + 1]]:
                    rel = over.get(rslot)
                    if rel is None:
                        rel = rel_objs[rslot]
                    if rel.type == rel_type:
                        rslots.append(rslot)
                        total += 1
                offsets.append(total)
            pair = (offsets, rslots)
            self._typed_csr[key] = pair
        return pair

    def _expand_rels(
        self, node_id: NodeId, out: bool, types: Tuple[str, ...]
    ) -> Iterator[Relationship]:
        """Type-filtered adjacency in traversal order (order-stable)."""
        override = (self._ov_out if out else self._ov_in).get(node_id)
        if override is not None:
            for rel_id in override:
                rel = self._rel_or_none(rel_id)
                if rel is not None and (not types or rel.type in types):
                    yield rel
            return
        if types and len(types) == 1:
            slot = self._core.slot_of.get(node_id)
            if slot is None or (
                slot in self._dead_slots and node_id not in self._ov_nodes
            ):
                return
            offsets, rslots = self._typed_row(
                "out" if out else "in", types[0]
            )
            rel_objs = self._core.rel_objs
            over = self._rel_over
            for rslot in rslots[offsets[slot]:offsets[slot + 1]]:
                updated = over.get(rslot)
                yield rel_objs[rslot] if updated is None else updated
            return
        for rel in self._iter_adj(node_id, out):
            if not types or rel.type in types:
                yield rel

    def expand_pairs(
        self, node_id: NodeId, direction: str, types: Tuple[str, ...]
    ) -> Tuple[Tuple[Relationship, Node], ...]:
        """Memoized ``(relationship, neighbour)`` pairs for one expansion.

        ``direction`` is ``"out"``, ``"in"``, or ``"any"``; ``types`` is
        the pattern's type tuple (empty = untyped).  Pairs come back in
        exactly the order the interpreted
        :meth:`~repro.cypher.matcher.PatternMatcher._expand` would
        produce them, *before* its used-relationship and property
        filters (those depend on the match state and stay in the
        matcher).  The tuple is cached per (node, direction, types) on
        this immutable snapshot — repeated expansions during var-length
        walks and across evaluations of a reused window are array reads.
        """
        key = (node_id, direction, types)
        cached = self._expand_cache.get(key)
        if cached is not None:
            return cached
        pairs: List[Tuple[Relationship, Node]] = []
        if direction == "out":
            for rel in self._expand_rels(node_id, True, types):
                pairs.append((rel, self.node(rel.trg)))
        elif direction == "in":
            for rel in self._expand_rels(node_id, False, types):
                pairs.append((rel, self.node(rel.src)))
        else:
            seen = set()
            for rel in self._expand_rels(node_id, True, types):
                seen.add(rel.id)
                pairs.append((rel, self.node(rel.other_end(node_id))))
            for rel in self._expand_rels(node_id, False, types):
                if rel.id not in seen:
                    pairs.append((rel, self.node(rel.other_end(node_id))))
        result = tuple(pairs)
        self._expand_cache[key] = result
        return result

    # -- patching ----------------------------------------------------------

    def patched(
        self,
        nodes: Iterable[Node] = (),
        relationships: Iterable[Relationship] = (),
        removed_nodes: Iterable[NodeId] = (),
        removed_rels: Iterable[RelationshipId] = (),
    ) -> "ColumnarGraph":
        """A new graph with the upserts/removals applied as an overlay.

        Semantics, validation, and the move-to-end ordering invariant
        match :meth:`PropertyGraph.patched` exactly; the cost is
        O(delta + overlay) instead of O(graph) because the compacted
        core is shared, with an automatic compaction once the overlay
        outgrows half the core (amortized O(delta) per patch).
        """
        core = self._core
        ov_nodes = dict(self._ov_nodes)
        dead_slots = set(self._dead_slots)
        ov_rels = dict(self._ov_rels)
        rel_over = dict(self._rel_over)
        dead_rslots = set(self._dead_rslots)
        ov_out = dict(self._ov_out)
        ov_in = dict(self._ov_in)
        ov_by_label = dict(self._ov_by_label)
        by_type = dict(self._by_type)
        n_nodes = self._n_nodes
        n_rels = self._n_rels
        prop_index: Optional[Dict[Tuple[str, str], Dict[tuple, tuple]]]
        prop_index = (
            dict(self._prop_index) if self._prop_index is not None else None
        )
        prop_copied: set = set()

        def cur_node(node_id: NodeId) -> Optional[Node]:
            node = ov_nodes.get(node_id)
            if node is not None:
                return node
            slot = core.slot_of.get(node_id)
            if slot is None or slot in dead_slots:
                return None
            return core.node_objs[slot]

        def cur_rel(rel_id: RelationshipId) -> Optional[Relationship]:
            rel = ov_rels.get(rel_id)
            if rel is not None:
                return rel
            rslot = core.rslot_of.get(rel_id)
            if rslot is None or rslot in dead_rslots:
                return None
            updated = rel_over.get(rslot)
            return core.rel_objs[rslot] if updated is None else updated

        def cur_adj(node_id: NodeId, out: bool) -> Tuple[RelationshipId, ...]:
            override = (ov_out if out else ov_in).get(node_id)
            if override is not None:
                return override
            slot = core.slot_of.get(node_id)
            if slot is None:
                return ()
            if slot in dead_slots and node_id not in ov_nodes:
                return ()
            if out:
                row = core.out_rslots[core.out_off[slot]:core.out_off[slot + 1]]
            else:
                row = core.in_rslots[core.in_off[slot]:core.in_off[slot + 1]]
            rel_ids = core.rel_ids
            return tuple(rel_ids[rslot] for rslot in row)

        def cur_bucket(label: str) -> Tuple[NodeId, ...]:
            override = ov_by_label.get(label)
            if override is not None:
                return override
            slots = core.by_label.get(label)
            if slots is None:
                return ()
            node_ids = core.node_ids
            return tuple(node_ids[slot] for slot in slots)

        def prop_buckets_for(label_key: Tuple[str, str]) -> Dict[tuple, tuple]:
            assert prop_index is not None
            buckets = prop_index.get(label_key)
            if buckets is None:
                buckets = prop_index[label_key] = {}
                prop_copied.add(label_key)
            elif label_key not in prop_copied:
                buckets = prop_index[label_key] = dict(buckets)
                prop_copied.add(label_key)
            return buckets

        def prop_unindex(node: Node) -> None:
            for label_key, value_key in _prop_entries(node):
                if label_key not in prop_index:  # type: ignore[operator]
                    continue
                buckets = prop_buckets_for(label_key)
                ids = buckets.get(value_key)
                if ids is None:
                    continue
                stripped = tuple(i for i in ids if i != node.id)
                if stripped:
                    buckets[value_key] = stripped
                else:
                    del buckets[value_key]
                    if not buckets:
                        del prop_index[label_key]  # type: ignore[union-attr]

        def prop_indexed(node: Node) -> None:
            for label_key, value_key in _prop_entries(node):
                buckets = prop_buckets_for(label_key)
                buckets[value_key] = buckets.get(value_key, ()) + (node.id,)

        for rel_id in removed_rels:
            rel = cur_rel(rel_id)
            if rel is None:
                raise GraphConsistencyError(
                    f"cannot remove unknown relationship {rel_id}"
                )
            if rel_id in ov_rels:
                del ov_rels[rel_id]
            else:
                rslot = core.rslot_of[rel_id]
                dead_rslots.add(rslot)
                rel_over.pop(rslot, None)
            ov_out[rel.src] = tuple(
                i for i in cur_adj(rel.src, True) if i != rel_id
            )
            ov_in[rel.trg] = tuple(
                i for i in cur_adj(rel.trg, False) if i != rel_id
            )
            count = by_type.get(rel.type, 0) - 1
            if count > 0:
                by_type[rel.type] = count
            else:
                by_type.pop(rel.type, None)
            n_rels -= 1

        for node_id in removed_nodes:
            node = cur_node(node_id)
            if node is None:
                raise GraphConsistencyError(
                    f"cannot remove unknown node {node_id}"
                )
            if cur_adj(node_id, True) or cur_adj(node_id, False):
                raise GraphConsistencyError(
                    f"removing node {node_id} would dangle its relationships"
                )
            if node_id in ov_nodes:
                del ov_nodes[node_id]
            else:
                dead_slots.add(core.slot_of[node_id])
            if node_id in core.slot_of:
                # Pin empty adjacency overrides: if the id is later
                # re-upserted, the (stale) core CSR rows of its dead
                # slot must never resurface.
                ov_out[node_id] = ()
                ov_in[node_id] = ()
            else:
                ov_out.pop(node_id, None)
                ov_in.pop(node_id, None)
            for label in node.labels:
                ov_by_label[label] = tuple(
                    i for i in cur_bucket(label) if i != node_id
                )
            if prop_index is not None:
                prop_unindex(node)
            n_nodes -= 1

        # Upserts move to the end of every enumeration order, batched the
        # same way the reference implementation batches them.
        upserts: Dict[NodeId, Node] = {}
        for node in nodes:
            upserts[node.id] = node  # dedupe: last upsert of an id wins
        if upserts:
            affected_labels: set = set()
            olds: Dict[NodeId, Optional[Node]] = {}
            for node_id, node in upserts.items():
                old = cur_node(node_id)
                olds[node_id] = old
                if old is not None:
                    affected_labels.update(old.labels)
                    if node_id in ov_nodes:
                        del ov_nodes[node_id]  # move to end of overlay
                    else:
                        dead_slots.add(core.slot_of[node_id])
                else:
                    n_nodes += 1
                affected_labels.update(node.labels)
                ov_nodes[node_id] = node
            moved = set(upserts)
            for label in affected_labels:
                ids = cur_bucket(label)
                if ids:
                    ov_by_label[label] = tuple(
                        i for i in ids if i not in moved
                    )
            for node_id, node in upserts.items():
                for label in node.labels:
                    ov_by_label[label] = ov_by_label.get(label, ()) + (node_id,)
            if prop_index is not None:
                for node_id, old in olds.items():
                    if old is not None:
                        prop_unindex(old)
                for node in upserts.values():
                    prop_indexed(node)

        for rel in relationships:
            if cur_node(rel.src) is None:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling source {rel.src}"
                )
            if cur_node(rel.trg) is None:
                raise GraphConsistencyError(
                    f"relationship {rel.id} has dangling target {rel.trg}"
                )
            old = cur_rel(rel.id)
            if old is None:
                ov_rels[rel.id] = rel
                by_type[rel.type] = by_type.get(rel.type, 0) + 1
                n_rels += 1
                ov_out[rel.src] = cur_adj(rel.src, True) + (rel.id,)
                ov_in[rel.trg] = cur_adj(rel.trg, False) + (rel.id,)
                continue
            # Existing relationship: enumeration position is kept.
            if rel.id in ov_rels:
                ov_rels[rel.id] = rel
            else:
                rel_over[core.rslot_of[rel.id]] = rel
            if old.type != rel.type:
                count = by_type.get(old.type, 0) - 1
                if count > 0:
                    by_type[old.type] = count
                else:
                    by_type.pop(old.type, None)
                by_type[rel.type] = by_type.get(rel.type, 0) + 1
            if (old.src, old.trg) == (rel.src, rel.trg):
                continue  # endpoints unchanged: adjacency already right
            ov_out[old.src] = tuple(
                i for i in cur_adj(old.src, True) if i != rel.id
            )
            ov_in[old.trg] = tuple(
                i for i in cur_adj(old.trg, False) if i != rel.id
            )
            ov_out[rel.src] = cur_adj(rel.src, True) + (rel.id,)
            ov_in[rel.trg] = cur_adj(rel.trg, False) + (rel.id,)

        patched = ColumnarGraph(
            core, ov_nodes, dead_slots, ov_rels, rel_over, dead_rslots,
            ov_out, ov_in, ov_by_label, by_type, n_nodes, n_rels, prop_index,
        )
        overlay = (
            len(ov_nodes) + len(dead_slots) + len(ov_rels)
            + len(rel_over) + len(dead_rslots)
        )
        core_size = len(core.node_objs) + len(core.rel_objs)
        if 2 * overlay >= max(core_size, 1):
            return patched._compacted()
        return patched

    def _compacted(self) -> "ColumnarGraph":
        """This graph over a fresh core with an empty overlay.

        Enumeration orders are carried verbatim: nodes/relationships in
        current global order, adjacency rows as currently materialized
        (label buckets and property columns are order-derivable from the
        global node order, so they are rebuilt/carried respectively).
        """
        nodes = list(self._nodes_view.values())
        rels = list(self._rels_view.values())
        out_adj = {node.id: self._adj_ids(node.id, True) for node in nodes}
        in_adj = {node.id: self._adj_ids(node.id, False) for node in nodes}
        core = _Core(nodes, rels, out_adj, in_adj)
        return ColumnarGraph(
            core, {}, set(), {}, {}, set(), {}, {}, {},
            dict(self._by_type), self._n_nodes, self._n_rels,
            self._prop_index,
        )

    # -- equality / pickling ----------------------------------------------

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Node):
            return self._node_or_none(item.id) == item
        if isinstance(item, Relationship):
            return self._rel_or_none(item.id) == item
        return False

    def __eq__(self, other: object) -> bool:
        """Structural equality, interoperable with any graph exposing the
        public ``nodes``/``relationships`` mappings (the reference
        implementation included)."""
        other_nodes = getattr(other, "nodes", None)
        other_rels = getattr(other, "relationships", None)
        if not isinstance(other_nodes, Mapping) \
                or not isinstance(other_rels, Mapping):
            return NotImplemented
        if set(self._nodes_view) != set(other_nodes):
            return False
        if set(self._rels_view) != set(other_rels):
            return False
        for node_id, node in self._nodes_view.items():
            if not _same_node(node, other_nodes[node_id]):
                return False
        for rel_id, rel in self._rels_view.items():
            if not _same_relationship(rel, other_rels[rel_id]):
                return False
        return True

    def __hash__(self) -> int:
        return hash(
            (frozenset(self._nodes_view), frozenset(self._rels_view))
        )

    def __reduce__(self):
        # Compact column transport: id/src/trg arrays plus pooled label
        # sets and type names; rebuilt via of() so the receiving side
        # reproduces the same enumeration orders the reference pickle
        # contract guarantees.
        label_pool: Dict[Tuple[str, ...], int] = {}
        pools: List[Tuple[str, ...]] = []
        node_ids = array("q")
        node_labels = array("q")
        node_props: List[Optional[dict]] = []
        for node in self._nodes_view.values():
            node_ids.append(node.id)
            pool_key = tuple(sorted(node.labels))
            index = label_pool.get(pool_key)
            if index is None:
                index = label_pool[pool_key] = len(pools)
                pools.append(pool_key)
            node_labels.append(index)
            props = dict(node.properties)
            node_props.append(props if props else None)
        type_pool: Dict[str, int] = {}
        type_names: List[str] = []
        rel_ids = array("q")
        rel_types = array("q")
        rel_srcs = array("q")
        rel_trgs = array("q")
        rel_props: List[Optional[dict]] = []
        for rel in self._rels_view.values():
            rel_ids.append(rel.id)
            index = type_pool.get(rel.type)
            if index is None:
                index = type_pool[rel.type] = len(type_names)
                type_names.append(rel.type)
            rel_types.append(index)
            rel_srcs.append(rel.src)
            rel_trgs.append(rel.trg)
            props = dict(rel.properties)
            rel_props.append(props if props else None)
        return (
            _rebuild_columnar,
            (
                (node_ids, node_labels, tuple(pools), tuple(node_props)),
                (
                    rel_ids, rel_types, rel_srcs, rel_trgs,
                    tuple(type_names), tuple(rel_props),
                ),
            ),
        )

    def __repr__(self) -> str:
        return f"ColumnarGraph(order={self.order}, size={self.size})"


def _rebuild_columnar(node_part, rel_part) -> ColumnarGraph:
    """Unpickle target for :meth:`ColumnarGraph.__reduce__`."""
    node_ids, node_labels, pools, node_props = node_part
    rel_ids, rel_types, rel_srcs, rel_trgs, type_names, rel_props = rel_part
    nodes = [
        Node(id=node_id, labels=pools[pool_index], properties=props or {})
        for node_id, pool_index, props
        in zip(node_ids, node_labels, node_props)
    ]
    rels = [
        Relationship(
            id=rel_id, type=type_names[type_index], src=src, trg=trg,
            properties=props or {},
        )
        for rel_id, type_index, src, trg, props
        in zip(rel_ids, rel_types, rel_srcs, rel_trgs, rel_props)
    ]
    return ColumnarGraph.of(nodes, rels)


_EMPTY_COLUMNAR = ColumnarGraph.of()


class ColumnarStore(GraphStore):
    """A :class:`~repro.graph.store.GraphStore` freezing columnar snapshots.

    Identical write semantics; ``graph()`` produces
    :class:`ColumnarGraph` snapshots (full rebuilds via
    :meth:`ColumnarGraph.of`, incremental epochs via
    :meth:`ColumnarGraph.patched`).
    """

    _graph_cls = ColumnarGraph


#: Snapshot-class registry behind ``EngineConfig(graph_backend=...)``.
GRAPH_BACKENDS: Dict[str, type] = {
    "reference": PropertyGraph,
    "columnar": ColumnarGraph,
}


def resolve_backend_name(name: str) -> str:
    """Validate a backend name (raises :class:`EngineError` on unknown)."""
    if name not in GRAPH_BACKENDS:
        raise EngineError(
            f"unknown graph backend {name!r}; "
            f"expected one of {sorted(GRAPH_BACKENDS)}"
        )
    return name


def resolve_backend(name: str) -> type:
    """The snapshot class for a backend name."""
    return GRAPH_BACKENDS[resolve_backend_name(name)]
