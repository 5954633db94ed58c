"""Pattern matching over property graphs — ``match(π, G, u)`` of Section 3.2.

Implements Cypher's matching semantics:

* bag semantics — one output assignment per distinct way of embedding the
  pattern (per rigid pattern × path, in the paper's formulation);
* **relationship uniqueness** — within one match of a whole ``MATCH``
  pattern, no relationship is traversed twice (nodes may repeat);
* variable-length patterns ``*lo..hi`` enumerate all rigid expansions,
  finitely because of relationship uniqueness;
* ``shortestPath``/``allShortestPaths`` via breadth-first search.

The matcher works against a *scope* of pre-existing bindings (the record
``u``), only yielding assignments for names not already bound, exactly as
``dom(u') = free(π) \\ dom(u)`` requires.

Beyond the plain enumeration, :meth:`PatternMatcher.match_pattern_traced`
also reports each match's *footprint* — the set of graph entities the
embedding traverses (bound or anonymous) — and accepts an anchor
restriction on the first path's start candidates.  Together these are the
entry points the delta-driven incremental evaluation layer
(:mod:`repro.seraph.delta`) uses: footprints decide which previous
assignments a stream delta invalidates, the anchor restricts re-matching
to the dirty neighbourhood.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.cypher import ast
from repro.cypher.expressions import ExpressionEvaluator
from repro.errors import CypherEvaluationError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import NULL, Ternary, cypher_equals

Bindings = Dict[str, Any]
UsedRels = FrozenSet[int]
#: One traversed entity: ("n", node_id) or ("r", relationship_id).
EntityRef = Tuple[str, int]
#: All entities one embedding of a pattern traverses.
Footprint = FrozenSet[EntityRef]

_EMPTY_FOOTPRINT: Footprint = frozenset()

#: Pattern orientation -> the graph read contract's ``expand_pairs`` tag.
_DIRECTION_TAGS = {
    ast.Direction.OUT: "out",
    ast.Direction.IN: "in",
    ast.Direction.BOTH: "any",
}


def footprint_of(nodes: Iterator[Node], rels: Iterator[Relationship]) -> Footprint:
    """The footprint of an explicit node/relationship traversal."""
    entries: List[EntityRef] = [("n", node.id) for node in nodes]
    entries.extend(("r", rel.id) for rel in rels)
    return frozenset(entries)


class PatternMatcher:
    """Matches patterns against one property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        evaluator: ExpressionEvaluator,
        pruner: Optional[Any] = None,
    ):
        self.graph = graph
        self.evaluator = evaluator
        # Vectorized candidate pruning (repro.cypher.vectorized): a
        # CandidatePruner over the snapshot turns each pattern's constant
        # label/property predicates into one ordered id-set, consumed
        # here as pre-pruned start enumerations and as one membership
        # probe per expansion target.  Pruned sets are exact-or-superset
        # in global node order and every survivor still runs the
        # residual _bind_node checks, so enumeration order and results
        # are byte-identical with the pruner on or off.
        self.pruner = pruner
        #: Per-(path, hop) candidate/pruned counters, activated by the
        #: physical plan's execute loop: ``{(path_idx, hop): [candidates,
        #: pruned]}`` with hop ``-1`` for start enumeration and hop ``k``
        #: for the k-th relationship pattern.  ``None`` disables counting.
        self.hop_counts: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._path_index: Dict[int, Tuple[ast.PathPattern, int]] = {}
        # Per-pattern hoists, keyed by id() with the keyed object kept
        # alive in the value so a recycled id can never alias:
        # label frozensets, constant-property evaluations, pruned sets.
        self._label_sets: Dict[int, Tuple[Any, FrozenSet[str]]] = {}
        self._const_props: Dict[int, Tuple[Any, Tuple[Tuple[str, bool, Any], ...]]] = {}
        self._pruned_sets: Dict[int, Tuple[Any, Optional[Any]]] = {}

    # -- per-pattern hoists -------------------------------------------------

    def _label_set(self, node_pattern: ast.NodePattern) -> FrozenSet[str]:
        entry = self._label_sets.get(id(node_pattern))
        if entry is None:
            entry = (node_pattern, frozenset(node_pattern.labels))
            self._label_sets[id(node_pattern)] = entry
        return entry[1]

    def _const_entries(
        self, properties: Tuple[Tuple[str, ast.Expression], ...]
    ) -> Tuple[Tuple[str, bool, Any], ...]:
        """Hoist literal property values out of the candidate loop.

        Literal expressions are scope-independent, so they are evaluated
        exactly once per pattern (not once per candidate) and cached as
        ``(key, True, value)``; non-constant expressions stay as
        ``(key, False, expression)`` and are evaluated per candidate as
        before.
        """
        entry = self._const_props.get(id(properties))
        if entry is None:
            hoisted = tuple(
                (key, True, self.evaluator.evaluate(expression, {}))
                if isinstance(expression, ast.Literal)
                else (key, False, expression)
                for key, expression in properties
            )
            entry = (properties, hoisted)
            self._const_props[id(properties)] = entry
        return entry[1]

    def _pruned_set(self, node_pattern: ast.NodePattern) -> Optional[Any]:
        """The pruner's candidate set for ``node_pattern`` (memoized),
        or ``None`` when pruning is off or the pattern is unprunable."""
        if self.pruner is None:
            return None
        entry = self._pruned_sets.get(id(node_pattern))
        if entry is None:
            entry = (node_pattern, self.pruner.pruned_set(node_pattern))
            self._pruned_sets[id(node_pattern)] = entry
        return entry[1]

    def _count_slot(
        self, path: ast.PathPattern, hop: int
    ) -> Optional[List[int]]:
        counts = self.hop_counts
        if counts is None:
            return None
        indexed = self._path_index.get(id(path))
        if indexed is None:
            return None
        key = (indexed[1], hop)
        slot = counts.get(key)
        if slot is None:
            slot = [0, 0]
            counts[key] = slot
        return slot

    def _register_paths(self, pattern: ast.Pattern) -> None:
        for position, path in enumerate(pattern.paths):
            self._path_index[id(path)] = (path, position)

    # -- public API ---------------------------------------------------------

    def match_pattern(
        self,
        pattern: ast.Pattern,
        scope: Mapping[str, Any],
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Bindings]:
        """Yield the new-bindings records ``u'`` for each match of the
        whole comma-separated pattern, honouring relationship uniqueness
        across all its path patterns.

        ``anchor_nodes`` — an *ordered* candidate sequence that replaces
        the first path's start-node enumeration (physical index seeks).
        Candidates are still checked against the node pattern, so any
        superset of the true matches in global node order is sound.  It
        is ignored when the first path is a shortestPath or its start
        variable is already bound in ``scope``.
        """
        initial = frozenset(scope)
        if self.hop_counts is not None:
            self._register_paths(pattern)
        for bindings, _used, _footprint in self._match_paths(
            list(pattern.paths), dict(scope), frozenset(), _EMPTY_FOOTPRINT,
            anchor_nodes=anchor_nodes,
        ):
            yield {
                name: value for name, value in bindings.items() if name not in initial
            }

    def match_pattern_traced(
        self,
        pattern: ast.Pattern,
        scope: Mapping[str, Any],
        first_candidates: Optional[AbstractSet[int]] = None,
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Tuple[Bindings, Footprint]]:
        """Like :meth:`match_pattern`, but also yield each embedding's
        footprint (every node/relationship it traverses, named or not).

        ``first_candidates`` — the anchored entry point — restricts the
        *start node* of the first path pattern to the given node ids.
        The delta layer passes the dirty neighbourhood here, so
        re-matching explores only embeddings that can possibly touch a
        changed entity instead of the whole snapshot.
        """
        initial = frozenset(scope)
        if self.hop_counts is not None:
            self._register_paths(pattern)
        for bindings, _used, footprint in self._match_paths(
            list(pattern.paths),
            dict(scope),
            frozenset(),
            _EMPTY_FOOTPRINT,
            first_candidates=first_candidates,
            anchor_nodes=anchor_nodes,
        ):
            new = {
                name: value
                for name, value in bindings.items()
                if name not in initial
            }
            yield new, footprint

    def has_match(self, path: ast.PathPattern, scope: Mapping[str, Any]) -> bool:
        """Existence check for pattern predicates (no uniqueness sharing
        with the enclosing MATCH, per Cypher)."""
        for _ in self._match_single_path(path, dict(scope), frozenset()):
            return True
        return False

    # -- pattern-level recursion ---------------------------------------------

    def _match_paths(
        self,
        paths: List[ast.PathPattern],
        bindings: Bindings,
        used: UsedRels,
        footprint: Footprint,
        first_candidates: Optional[AbstractSet[int]] = None,
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        if not paths:
            yield bindings, used, footprint
            return
        head, tail = paths[0], paths[1:]
        for new_bindings, new_used, path_footprint in self._match_single_path(
            head, bindings, used, start_candidates=first_candidates,
            anchor_nodes=anchor_nodes,
        ):
            yield from self._match_paths(
                tail, new_bindings, new_used, footprint | path_footprint
            )

    # -- single path pattern ----------------------------------------------------

    def _match_single_path(
        self,
        path: ast.PathPattern,
        bindings: Bindings,
        used: UsedRels,
        start_candidates: Optional[AbstractSet[int]] = None,
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        if path.shortest is not None:
            yield from self._match_shortest(path, bindings, used)
            return
        start_pattern = path.nodes[0]
        start_unbound = not (
            start_pattern.variable is not None
            and start_pattern.variable in bindings
        )
        slot = self._count_slot(path, -1)
        pruned = self._pruned_set(start_pattern) if start_unbound else None
        probe = None
        if anchor_nodes is not None and start_unbound:
            # Physical index seek: an ordered superset of the matches.
            # The pruned set (also a superset) sharpens it — a candidate
            # outside the set cannot match, so probing is sound.
            starts: Iterable[Node] = anchor_nodes
            probe = pruned.ids if pruned is not None else None
        elif pruned is not None:
            # Vectorized start enumeration: the pre-pruned ordered
            # candidate array replaces the label scan.  Candidates the
            # set operations eliminated are counted as pruned without
            # ever being enumerated.
            starts = pruned.nodes
            if slot is not None:
                slot[1] += pruned.pruned
        else:
            starts = self._node_candidates(start_pattern, bindings)
        for start in starts:
            if start_candidates is not None and start.id not in start_candidates:
                continue
            if slot is not None:
                slot[0] += 1
            if probe is not None and start.id not in probe:
                if slot is not None:
                    slot[1] += 1
                continue
            start_bindings = self._bind_node(path.nodes[0], start, bindings)
            if start_bindings is None:
                continue
            yield from self._walk(
                path, 0, start, start_bindings, used, [start], []
            )

    def _walk(
        self,
        path: ast.PathPattern,
        step: int,
        current: Node,
        bindings: Bindings,
        used: UsedRels,
        trav_nodes: List[Node],
        trav_rels: List[Relationship],
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        if step == len(path.relationships):
            final = bindings
            if path.variable is not None:
                path_value = Path(tuple(trav_nodes), tuple(trav_rels))
                if path.flipped:
                    # Planner-reversed walk: expose the source orientation.
                    path_value = path_value.reversed()
                if path.variable in bindings:
                    if bindings[path.variable] != path_value:
                        return
                else:
                    final = dict(bindings)
                    final[path.variable] = path_value
            yield final, used, footprint_of(iter(trav_nodes), iter(trav_rels))
            return

        rel_pattern = path.relationships[step]
        next_pattern = path.nodes[step + 1]

        if rel_pattern.var_length is None:
            yield from self._walk_single_hop(
                path, step, rel_pattern, next_pattern, current, bindings, used,
                trav_nodes, trav_rels,
            )
        else:
            yield from self._walk_var_length(
                path, step, rel_pattern, next_pattern, current, bindings, used,
                trav_nodes, trav_rels,
            )

    def _walk_single_hop(
        self,
        path: ast.PathPattern,
        step: int,
        rel_pattern: ast.RelationshipPattern,
        next_pattern: ast.NodePattern,
        current: Node,
        bindings: Bindings,
        used: UsedRels,
        trav_nodes: List[Node],
        trav_rels: List[Relationship],
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        bound_rel = None
        if rel_pattern.variable is not None and rel_pattern.variable in bindings:
            bound_rel = bindings[rel_pattern.variable]
            if not isinstance(bound_rel, Relationship):
                return
        slot = self._count_slot(path, step)
        pruned = self._pruned_set(next_pattern)
        probe = pruned.ids if pruned is not None else None
        for rel, next_node in self._expand(current, rel_pattern, bindings, used):
            if slot is not None:
                # Expanded candidates, counted before any target filter.
                slot[0] += 1
            if bound_rel is not None and rel.id != bound_rel.id:
                continue
            if probe is not None and next_node.id not in probe:
                # One set-membership probe replaces the per-neighbour
                # label/constant-property checks: the pruned set is a
                # superset of the matches, so absence is definitive.
                if slot is not None:
                    slot[1] += 1
                continue
            new_bindings = bindings
            if rel_pattern.variable is not None and bound_rel is None:
                new_bindings = dict(bindings)
                new_bindings[rel_pattern.variable] = rel
            node_bindings = self._bind_node(next_pattern, next_node, new_bindings)
            if node_bindings is None:
                continue
            yield from self._walk(
                path,
                step + 1,
                next_node,
                node_bindings,
                used | {rel.id},
                trav_nodes + [next_node],
                trav_rels + [rel],
            )

    def _walk_var_length(
        self,
        path: ast.PathPattern,
        step: int,
        rel_pattern: ast.RelationshipPattern,
        next_pattern: ast.NodePattern,
        current: Node,
        bindings: Bindings,
        used: UsedRels,
        trav_nodes: List[Node],
        trav_rels: List[Relationship],
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        low, high = rel_pattern.var_length
        low = 1 if low is None else low
        bound_value = None
        if rel_pattern.variable is not None and rel_pattern.variable in bindings:
            bound_value = bindings[rel_pattern.variable]
        slot = self._count_slot(path, step)
        pruned = self._pruned_set(next_pattern)
        probe = pruned.ids if pruned is not None else None

        def finalize(
            node: Node,
            seg_rels: List[Relationship],
            seg_nodes: List[Node],
            seg_used: UsedRels,
        ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
            if probe is not None and node.id not in probe:
                # Target outside the pruned superset: no residual check
                # can succeed, reject before binding.
                if slot is not None:
                    slot[1] += 1
                return
            # Planner-reversed walk: the bound list keeps source order.
            rel_list = (
                list(reversed(seg_rels)) if path.flipped else list(seg_rels)
            )
            if bound_value is not None:
                if not isinstance(bound_value, list) or [
                    item.id for item in bound_value if isinstance(item, Relationship)
                ] != [rel.id for rel in rel_list]:
                    return
                new_bindings = bindings
            elif rel_pattern.variable is not None:
                new_bindings = dict(bindings)
                new_bindings[rel_pattern.variable] = rel_list
            else:
                new_bindings = bindings
            node_bindings = self._bind_node(next_pattern, node, new_bindings)
            if node_bindings is None:
                return
            yield from self._walk(
                path,
                step + 1,
                node,
                node_bindings,
                seg_used,
                trav_nodes + seg_nodes,
                trav_rels + seg_rels,
            )

        def extend(
            node: Node,
            seg_rels: List[Relationship],
            seg_nodes: List[Node],
            seg_used: UsedRels,
            depth: int,
        ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
            if depth >= low:
                yield from finalize(node, seg_rels, seg_nodes, seg_used)
            if high is not None and depth >= high:
                return
            for rel, nxt in self._expand(node, rel_pattern, bindings, seg_used):
                if slot is not None:
                    # Expanded candidates before filtering — one per
                    # traversed edge at every depth.
                    slot[0] += 1
                yield from extend(
                    nxt,
                    seg_rels + [rel],
                    seg_nodes + [nxt],
                    seg_used | {rel.id},
                    depth + 1,
                )

        yield from extend(current, [], [], used, 0)

    # -- expansion and candidate generation ------------------------------------

    def _expand(
        self,
        node: Node,
        rel_pattern: ast.RelationshipPattern,
        scope: Mapping[str, Any],
        used: UsedRels,
    ) -> Iterator[Tuple[Relationship, Node]]:
        """Candidate (relationship, next node) pairs from ``node``.

        Both graph backends serve ``expand_pairs`` in the same traversal
        order (the columnar one straight off its CSR arrays, memoized per
        snapshot); the filters that depend on the match state —
        relationship uniqueness, pattern properties — run here.
        """
        for rel, next_node in self.graph.expand_pairs(
            node.id, _DIRECTION_TAGS[rel_pattern.direction], rel_pattern.types
        ):
            if rel.id in used:
                continue
            if not self._properties_match(rel, rel_pattern.properties, scope):
                continue
            yield rel, next_node

    def _node_candidates(
        self, node_pattern: ast.NodePattern, bindings: Bindings
    ) -> Iterator[Node]:
        if node_pattern.variable is not None and node_pattern.variable in bindings:
            value = bindings[node_pattern.variable]
            if isinstance(value, Node) and value.id in self.graph.nodes:
                yield self.graph.node(value.id)
            return
        if node_pattern.labels:
            pruned = self._pruned_set(node_pattern)
            if pruned is not None:
                # Pre-pruned ordered candidates (also serves the
                # shortestPath endpoint enumerations): a subsequence of
                # the label scan in global node order, missing only
                # candidates the residual checks would reject.
                yield from pruned.nodes
            else:
                yield from self.graph.nodes_with_labels(node_pattern.labels)
        else:
            yield from self.graph.nodes.values()

    def _bind_node(
        self, node_pattern: ast.NodePattern, node: Node, bindings: Bindings
    ) -> Optional[Bindings]:
        """Check a node against its pattern and bind its variable.

        Returns the (possibly extended) bindings, or None on mismatch.
        """
        if not self._label_set(node_pattern) <= node.labels:
            return None
        if not self._properties_match(node, node_pattern.properties, bindings):
            return None
        if node_pattern.variable is None:
            return bindings
        existing = bindings.get(node_pattern.variable)
        if existing is not None:
            if not isinstance(existing, Node) or existing.id != node.id:
                return None
            return bindings
        if node_pattern.variable in bindings:  # bound to null
            return None
        extended = dict(bindings)
        extended[node_pattern.variable] = node
        return extended

    def _properties_match(
        self,
        entity: Any,
        properties: Tuple[Tuple[str, ast.Expression], ...],
        scope: Mapping[str, Any],
    ) -> bool:
        if not properties:
            return True
        for key, is_const, payload in self._const_entries(properties):
            expected = (
                payload if is_const else self.evaluator.evaluate(payload, scope)
            )
            verdict = cypher_equals(entity.property(key), expected)
            if verdict is not Ternary.TRUE:
                return False
        return True

    # -- shortest paths ----------------------------------------------------------

    def _match_shortest(
        self, path: ast.PathPattern, bindings: Bindings, used: UsedRels
    ) -> Iterator[Tuple[Bindings, UsedRels, Footprint]]:
        if len(path.relationships) != 1:
            raise CypherEvaluationError(
                "shortestPath() requires a single relationship pattern"
            )
        rel_pattern = path.relationships[0]
        low, high = (
            rel_pattern.var_length if rel_pattern.var_length is not None else (1, 1)
        )
        low = 1 if low is None else low
        want_all = path.shortest == "allShortestPaths"
        for start in self._node_candidates(path.nodes[0], bindings):
            start_bindings = self._bind_node(path.nodes[0], start, bindings)
            if start_bindings is None:
                continue
            for end in self._node_candidates(path.nodes[1], start_bindings):
                end_bindings = self._bind_node(path.nodes[1], end, start_bindings)
                if end_bindings is None:
                    continue
                shortest = self._bfs_shortest(
                    start, end, rel_pattern, end_bindings, used, low, high
                )
                if not shortest:
                    continue
                emitted = shortest if want_all else shortest[:1]
                for path_value in emitted:
                    final = end_bindings
                    new_used = used | {rel.id for rel in path_value.relationships}
                    if rel_pattern.variable is not None:
                        final = dict(final)
                        final[rel_pattern.variable] = list(path_value.relationships)
                    if path.variable is not None:
                        final = dict(final)
                        final[path.variable] = path_value
                    yield final, new_used, footprint_of(
                        iter(path_value.nodes), iter(path_value.relationships)
                    )

    def _bfs_shortest(
        self,
        start: Node,
        end: Node,
        rel_pattern: ast.RelationshipPattern,
        scope: Mapping[str, Any],
        used: UsedRels,
        low: int,
        high: Optional[int],
    ) -> List[Path]:
        """All shortest paths from start to end of length in [low, high].

        Paths are trails (relationship-unique).  The search runs
        breadth-first over ``(node, depth)`` states rather than plain node
        levels: a node — including the target — may be revisited at a
        greater depth, which is what makes a lower bound beyond the
        plain shortest distance reachable (``shortestPath((a)-[*3..]->(b))``
        must keep exploring after seeing ``b`` at depth 1 or 2).
        Relationship uniqueness is enforced during path enumeration.
        """
        if start.id == end.id and low == 0:
            return [Path((start,), ())]
        # A trail cannot repeat a relationship, so its length is bounded
        # by the graph size even when the pattern is unbounded above.
        max_depth = len(self.graph.relationships)
        if high is not None:
            max_depth = min(max_depth, high)
        frontier = {start.id}
        parents: Dict[Tuple[int, int], List[Tuple[int, Relationship]]] = {}
        depth = 0
        while frontier and depth < max_depth:
            next_frontier = set()
            for node_id in frontier:
                node = self.graph.node(node_id)
                for rel, nxt in self._expand(node, rel_pattern, scope, used):
                    state = (nxt.id, depth + 1)
                    if state not in parents:
                        next_frontier.add(nxt.id)
                    parents.setdefault(state, []).append((node_id, rel))
            frontier = next_frontier
            depth += 1
            if depth >= low and (end.id, depth) in parents:
                paths = self._enumerate_trails(start, end, parents, depth)
                if paths:
                    # Deterministic ordering: by the relationship-id sequence.
                    paths.sort(
                        key=lambda p: tuple(rel.id for rel in p.relationships)
                    )
                    return paths
                # Every walk of this length repeats a relationship — not a
                # valid trail; keep searching deeper.
        return []

    def _enumerate_trails(
        self,
        start: Node,
        end: Node,
        parents: Dict[Tuple[int, int], List[Tuple[int, Relationship]]],
        found_depth: int,
    ) -> List[Path]:
        """All relationship-unique walks of exactly ``found_depth`` hops
        from ``start`` to ``end``, read backward off the BFS parents."""
        paths: List[Path] = []

        def backtrack(
            node_id: int,
            depth: int,
            suffix_nodes: List[Node],
            suffix_rels: List[Relationship],
            used_ids: FrozenSet[int],
        ) -> None:
            if depth == 0:
                if node_id == start.id:
                    nodes = [start] + list(reversed(suffix_nodes))
                    rels = list(reversed(suffix_rels))
                    paths.append(Path(tuple(nodes), tuple(rels)))
                return
            for prev_id, rel in parents.get((node_id, depth), []):
                if rel.id in used_ids:
                    continue
                backtrack(
                    prev_id,
                    depth - 1,
                    suffix_nodes + [self.graph.node(node_id)],
                    suffix_rels + [rel],
                    used_ids | {rel.id},
                )

        backtrack(end.id, found_depth, [], [], frozenset())
        return paths
