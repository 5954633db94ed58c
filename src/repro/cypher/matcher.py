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
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.cypher import ast
from repro.cypher.expressions import ExpressionEvaluator, property_variables
from repro.errors import CypherEvaluationError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import NULL, Ternary, cypher_equals

Bindings = Dict[str, Any]
UsedRels = FrozenSet[int]

#: One walk of a shortest-path search: (relationship ids, nodes,
#: relationships), all three in source orientation.
Walk = Tuple[Tuple[int, ...], Tuple[Node, ...], Tuple[Relationship, ...]]

#: Pattern orientation -> the graph read contract's ``expand_pairs`` tag.
_DIRECTION_TAGS = {
    ast.Direction.OUT: "out",
    ast.Direction.IN: "in",
    ast.Direction.BOTH: "any",
}


class PatternMatcher:
    """Matches patterns against one property graph."""

    def __init__(self, graph: PropertyGraph, evaluator: ExpressionEvaluator):
        self.graph = graph
        self.evaluator = evaluator
        #: Per-(path, hop) candidate counters, activated by the physical
        #: plan's execute loop: ``{(path_idx, hop): [candidates]}`` with
        #: hop ``-1`` for start enumeration and hop ``k`` for the k-th
        #: relationship pattern (a shortestPath path has only hop ``0``:
        #: what its searches expanded).  ``None`` disables counting.
        self.hop_counts: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._path_index: Dict[int, Tuple[ast.PathPattern, int]] = {}
        # Per-pattern hoists, keyed by id() with the keyed object kept
        # alive in the value so a recycled id can never alias:
        # label frozensets, constant-property evaluations.
        self._label_sets: Dict[int, Tuple[Any, FrozenSet[str]]] = {}
        self._const_props: Dict[int, Tuple[Any, Tuple[Tuple[str, bool, Any], ...]]] = {}

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
            slot = [0]
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
        for bindings, _used in self._match_paths(
            list(pattern.paths), dict(scope), frozenset(), anchor_nodes
        ):
            yield {
                name: value for name, value in bindings.items()
                if name not in initial
            }

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
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        if not paths:
            yield bindings, used
            return
        head, tail = paths[0], paths[1:]
        for new_bindings, new_used in self._match_single_path(
            head, bindings, used, anchor_nodes
        ):
            yield from self._match_paths(tail, new_bindings, new_used)

    # -- single path pattern ----------------------------------------------------

    def _match_single_path(
        self,
        path: ast.PathPattern,
        bindings: Bindings,
        used: UsedRels,
        anchor_nodes: Optional[Iterable[Node]] = None,
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        if path.shortest is not None:
            yield from self._match_shortest(path, bindings, used)
            return
        start_pattern = path.nodes[0]
        start_unbound = not (
            start_pattern.variable is not None
            and start_pattern.variable in bindings
        )
        slot = self._count_slot(path, -1)
        if anchor_nodes is not None and start_unbound:
            # Physical index seek: an ordered superset of the matches.
            starts: Iterable[Node] = anchor_nodes
        else:
            starts = self._node_candidates(start_pattern, bindings)
        for start in starts:
            if slot is not None:
                slot[0] += 1
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
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
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
            yield final, used
            return

        rel_pattern = path.relationships[step]
        next_pattern = path.nodes[step + 1]

        walk_hop = (
            self._walk_single_hop if rel_pattern.var_length is None
            else self._walk_var_length
        )
        yield from walk_hop(
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
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        bound_rel = None
        if rel_pattern.variable is not None and rel_pattern.variable in bindings:
            bound_rel = bindings[rel_pattern.variable]
            if not isinstance(bound_rel, Relationship):
                return
        slot = self._count_slot(path, step)
        for rel, next_node in self._expand(current, rel_pattern, bindings, used):
            if slot is not None:
                # Expanded candidates, counted before any target filter.
                slot[0] += 1
            if bound_rel is not None and rel.id != bound_rel.id:
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
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        low, high = rel_pattern.var_length
        low = 1 if low is None else low
        bound_value = None
        if rel_pattern.variable is not None and rel_pattern.variable in bindings:
            bound_value = bindings[rel_pattern.variable]
        slot = self._count_slot(path, step)
        # Depth-first over trails, pre-order, on an explicit stack of
        # expansion iterators (a recursive closure refers to itself
        # through its cell: cyclic garbage per evaluation).  The bottom
        # entry is the zero-length segment: no relationship to append.
        stack: List[tuple] = [(iter(((None, current),)), [], [], used, -1)]
        while stack:
            pairs, seg_rels, seg_nodes, seg_used, depth = stack[-1]
            pair = next(pairs, None)
            if pair is None:
                stack.pop()
                continue
            rel, node = pair
            depth += 1
            if rel is not None:
                if slot is not None:
                    # Expanded candidates before filtering — one per
                    # traversed edge at every depth.
                    slot[0] += 1
                seg_rels = seg_rels + [rel]
                seg_nodes = seg_nodes + [node]
                seg_used = seg_used | {rel.id}
            if high is None or depth < high:
                # Consumed only after this segment's own matches below.
                stack.append((
                    self._expand(node, rel_pattern, bindings, seg_used),
                    seg_rels, seg_nodes, seg_used, depth,
                ))
            if depth < low:
                continue
            # Planner-reversed walk: the bound list keeps source order.
            rel_list = (
                list(reversed(seg_rels)) if path.flipped else list(seg_rels)
            )
            new_bindings = bindings
            if bound_value is not None:
                if not isinstance(bound_value, list) or [
                    item.id for item in bound_value if isinstance(item, Relationship)
                ] != [rel.id for rel in rel_list]:
                    continue
            elif rel_pattern.variable is not None:
                new_bindings = dict(bindings)
                new_bindings[rel_pattern.variable] = rel_list
            node_bindings = self._bind_node(next_pattern, node, new_bindings)
            if node_bindings is None:
                continue
            yield from self._walk(
                path,
                step + 1,
                node,
                node_bindings,
                seg_used,
                trav_nodes + seg_nodes,
                trav_rels + seg_rels,
            )

    # -- expansion and candidate generation ------------------------------------

    def _expand(
        self,
        node: Node,
        rel_pattern: ast.RelationshipPattern,
        scope: Mapping[str, Any],
        used: UsedRels,
    ) -> Iterator[Tuple[Relationship, Node]]:
        """Candidate (relationship, next node) pairs from ``node``.

        The graph serves ``expand_pairs`` in traversal order; the filters
        that depend on the match state — relationship uniqueness, pattern
        properties — run here.
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

    def _bound_candidates(
        self, node_pattern: ast.NodePattern, bindings: Bindings
    ) -> List[Tuple[Node, Bindings]]:
        """One endpoint side of a shortestPath: every node that matches
        ``node_pattern`` under ``bindings``, in global node order, with
        the bindings extended by its variable."""
        return [
            (node, bound)
            for node in self._node_candidates(node_pattern, bindings)
            if (bound := self._bind_node(node_pattern, node, bindings)) is not None
        ]

    def _match_shortest(
        self, path: ast.PathPattern, bindings: Bindings, used: UsedRels
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        """``shortestPath`` / ``allShortestPaths``, a set at a time
        (docs/PLANNING.md).

        Each endpoint side is enumerated and bound once, the search is
        rooted on the side with fewer candidates (the end side walks the
        relationship pattern reversed) and :meth:`_shortest_from` answers
        every target of a root from one breadth-first search.  Rows are
        start-major, end-minor, both in global node order, whichever
        side was the root.  When the search depends on the pair — a
        relationship property reads an endpoint variable, the end pattern
        reads the start variable or *is* it — ends are enumerated per
        start and each pair is the one-target case of the same routine.
        """
        if len(path.relationships) != 1:
            raise CypherEvaluationError(
                "shortestPath() requires a single relationship pattern"
            )
        rel_pattern = path.relationships[0]
        low, high = (
            rel_pattern.var_length if rel_pattern.var_length is not None else (1, 1)
        )
        low = 1 if low is None else low
        # A trail repeats no relationship, so the graph size bounds its
        # length even when the pattern is unbounded above.
        max_depth = len(self.graph.relationships)
        if high is not None:
            max_depth = min(max_depth, high)
        start_pattern, end_pattern = path.nodes
        start_var, end_var = start_pattern.variable, end_pattern.variable
        search = partial(
            self._shortest_from, used=used, low=low, max_depth=max_depth,
            slot=self._count_slot(path, 0),
        )
        starts = self._bound_candidates(start_pattern, bindings)

        if {start_var, end_var} & set(property_variables([rel_pattern])) or (
            start_var is not None
            and (
                start_var == end_var
                or start_var in property_variables([end_pattern])
            )
        ):
            for start, start_bindings in starts:
                for end, end_bindings in self._bound_candidates(
                    end_pattern, start_bindings
                ):
                    found = search(start, [end], rel_pattern, end_bindings)
                    yield from self._shortest_rows(
                        path, start_bindings, end_bindings,
                        found.get(end.id, ()), used,
                    )
            return

        ends = self._bound_candidates(end_pattern, bindings)
        from_end = None
        if len(ends) < len(starts):
            backward = path.reversed_pattern().relationships[0]
            start_nodes = [start for start, _ in starts]
            from_end = {
                end.id: search(
                    end, start_nodes, backward, bindings, rooted_at_end=True
                )
                for end, _ in ends
            }
        else:
            end_nodes = [end for end, _ in ends]
        for start, start_bindings in starts:
            if from_end is None:
                found = search(start, end_nodes, rel_pattern, bindings)
            for end, end_bindings in ends:
                walks = (
                    found.get(end.id) if from_end is None
                    else from_end[end.id].get(start.id)
                )
                if walks:
                    yield from self._shortest_rows(
                        path, start_bindings, end_bindings, walks, used
                    )

    def _shortest_rows(
        self,
        path: ast.PathPattern,
        start_bindings: Bindings,
        end_bindings: Bindings,
        walks: List[Walk],
        used: UsedRels,
    ) -> Iterator[Tuple[Bindings, UsedRels]]:
        """The output rows of one ``(start, end)`` pair from its ordered
        shortest walks — the first only for ``shortestPath``: the start's
        bindings, then the end's, the relationship list, the path."""
        rel_variable = path.relationships[0].variable
        for ids, nodes, rels in (
            walks if path.shortest == "allShortestPaths" else walks[:1]
        ):
            final = {**start_bindings, **end_bindings}
            if rel_variable is not None:
                final[rel_variable] = list(rels)
            if path.variable is not None:
                final[path.variable] = Path(nodes, rels)
            yield final, used.union(ids)

    def _shortest_from(
        self,
        root: Node,
        targets: List[Node],
        rel_pattern: ast.RelationshipPattern,
        scope: Mapping[str, Any],
        rooted_at_end: bool = False,
        *,
        used: UsedRels,
        low: int,
        max_depth: int,
        slot: Optional[List[int]],
    ) -> Dict[int, List[Walk]]:
        """Every target of one root answered from one search: ``{target
        id: its shortest trails of length in [low, max_depth]}``, each
        list in source orientation, ordered by relationship-id sequence.
        Targets without a trail are absent.

        ``rel_pattern`` is walked away from ``root`` (reversed by the
        caller when the root is the pattern's end), level by level.  The
        first pass enters each node once, at its distance, and records
        the parents of every shortest walk: a target first reached at
        depth ≥ ``low`` is answered from those (a shortest walk repeats
        no node, hence no relationship — it is a trail), one never
        reached has no trail of any length.  Only a target nearer than
        ``low`` (``*3..`` with a 1-hop shortcut, or the root itself)
        needs trails that revisit nodes: a second pass of the same loop
        keyed by ``(node, depth)`` states, reading off at each depth the
        walks that repeat no relationship.
        """
        found: Dict[int, List[Walk]] = {}
        pending = {target.id for target in targets}
        if low == 0 and root.id in pending:
            pending.discard(root.id)
            found[root.id] = [((), (root,), ())]
        for enter_once in (True, False):
            if not pending:
                break
            near: Set[int] = set()
            if enter_once and root.id in pending:
                pending.discard(root.id)
                near.add(root.id)
            root_key = root.id if enter_once else (root.id, 0)
            # key -> [(parent key, parent node, relationship)], one entry
            # per walk step of minimal depth into that key.
            parents: Dict[Any, List[tuple]] = {root_key: []}
            frontier = [(root_key, root)]
            depth = 0
            while frontier and pending and depth < max_depth:
                depth += 1
                entered: Dict[Any, Node] = {}
                for key, node in frontier:
                    for rel, nxt in self._expand(node, rel_pattern, scope, used):
                        if slot is not None:
                            slot[0] += 1
                        nxt_key = nxt.id if enter_once else (nxt.id, depth)
                        if nxt_key in entered:
                            parents[nxt_key].append((key, node, rel))
                        elif nxt_key not in parents:
                            entered[nxt_key] = nxt
                            parents[nxt_key] = [(key, node, rel)]
                frontier = list(entered.items())
                for target_id in list(pending):
                    key = target_id if enter_once else (target_id, depth)
                    if key not in entered:
                        continue
                    if depth < low:
                        if enter_once:
                            pending.discard(target_id)
                            near.add(target_id)
                        continue
                    trails = self._trails(
                        parents, key, entered[key], rooted_at_end
                    )
                    if trails:
                        pending.discard(target_id)
                        found[target_id] = trails
            pending = near
        return found

    @staticmethod
    def _trails(
        parents: Dict[Any, List[tuple]],
        key: Any,
        target: Node,
        rooted_at_end: bool,
    ) -> List[Walk]:
        """The relationship-unique walks from the search root to ``key``,
        read backward off the BFS ``parents``, in source orientation,
        ordered by relationship-id sequence."""
        walks: List[Walk] = []
        # (key, nodes, relationships, relationship ids), target first.
        stack = [(key, (target,), (), ())]
        while stack:
            key, nodes, rels, ids = stack.pop()
            steps = parents[key]
            if not steps:  # the root: only it was entered by no step
                if not rooted_at_end:
                    nodes, rels, ids = nodes[::-1], rels[::-1], ids[::-1]
                walks.append((ids, nodes, rels))
                continue
            for parent_key, parent, rel in steps:
                if rel.id not in ids:
                    stack.append((
                        parent_key, nodes + (parent,), rels + (rel,),
                        ids + (rel.id,),
                    ))
        # The deterministic pick: smallest relationship-id sequence as
        # the pattern is written, whichever end the search started from.
        walks.sort(key=lambda walk: walk[0])
        return walks

