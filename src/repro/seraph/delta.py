"""Delta-driven incremental MATCH evaluation (Section 6, "avoidable
re-executions").

The engine's per-evaluation window maintenance already knows *exactly*
which stream elements entered and left the window.  This module turns
that knowledge into an incremental evaluation path:

1. :class:`WindowDelta` — the elements a :meth:`_WindowState.advance`
   call added, and the *net-changed* node/relationship ids the snapshot
   maintainer recorded while applying arrivals and expiries.
2. :class:`QueryDeltaState` — the query's previous assignment set, each
   assignment paired with its *footprint* (every node and relationship
   the embedding traverses, named or anonymous).
3. :func:`evaluate_delta` — discard assignments whose footprint meets a
   dirty id, re-run the matcher anchored on the dirty neighbourhood
   only, merge, and recompute the terminal projection (aggregates and
   all) from the merged assignment set.

Soundness rests on two facts.  First, an embedding's validity depends
only on the merged view of the entities in its footprint: eligibility
(:func:`delta_ineligibility`) rejects every construct that could reach
beyond it (window-bound references, pattern predicates, OPTIONAL MATCH,
multi-clause bodies).  Second, an entity's merged snapshot view is a
function of its set of *distinct* contributions alone (the union is
idempotent, and consistent contributions commute), so it can only change
when that set changes — a contribution key appears for the first time or
disappears for the last, which is exactly when the maintainer marks the
entity dirty.  An element entering or leaving with a description some
surviving element also carries changes nothing.  Retained assignments
are therefore identical to what a full re-match would produce, and every
*new* embedding must touch a dirty entity, so anchoring the matcher on
the dirty neighbourhood (radius = the pattern's maximum hop count) finds
all of them.

Queries the analysis cannot cover fall back to full evaluation — the
correctness contract (property-tested bag-equality against
:func:`repro.seraph.semantics.continuous_run`) is unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.cypher import ast as cypher_ast
from repro.cypher.evaluator import QueryEvaluator
from repro.cypher.matcher import Footprint
from repro.cypher.planner import node_anchor_cost
from repro.graph.model import PropertyGraph
from repro.graph.table import Record, Table
from repro.graph.values import Ternary
from repro.seraph.ast import SeraphMatch, SeraphQuery
from repro.seraph.semantics import terminal_clause
from repro.stream.stream import StreamElement
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import WIN_END, WIN_START


@dataclass(frozen=True, slots=True)
class WindowDelta:
    """What one window advance changed: the elements that entered, and
    the net-changed ids (:class:`~repro.stream.snapshot.SnapshotMaintainer`)
    since the last snapshot build."""

    added: Tuple[StreamElement, ...] = ()
    changed_nodes: FrozenSet[int] = frozenset()
    changed_rels: FrozenSet[int] = frozenset()
    #: Endpoints of every relationship whose contribution set changed
    #: (vanished ones included: the withdrawn key carries them).
    changed_endpoints: FrozenSet[int] = frozenset()

    def dirty_entities(self) -> Footprint:
        """Every node/relationship id whose distinct-contribution set
        changed — the only entities whose merged snapshot view can differ
        from the previous evaluation's."""
        return frozenset(
            [("n", node_id) for node_id in self.changed_nodes]
            + [("r", rel_id) for rel_id in self.changed_rels]
        )

    def seed_node_ids(self) -> FrozenSet[int]:
        """Node ids to grow the dirty neighbourhood from (includes the
        endpoints of dirty relationships)."""
        return self.changed_nodes | self.changed_endpoints


@dataclass(slots=True)
class DeltaStats:
    """Outcome of one :func:`evaluate_delta` call."""

    full_refresh: bool
    retained: int
    recomputed: int


@dataclass(slots=True)
class QueryDeltaState:
    """The previous assignment set of one delta-eligible query.

    ``assignments`` pairs each matched record (projected to the pattern's
    free variables) with its embedding footprint.  ``valid`` is False
    until the first (full) refresh.
    """

    assignments: List[Tuple[Record, Footprint]] = field(default_factory=list)
    fields: FrozenSet[str] = frozenset()
    valid: bool = False


def _contains_type(obj: object, target: type) -> bool:
    """Conservative AST walk: does any sub-value instantiate ``target``?"""
    if isinstance(obj, target):
        return True
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return any(
            _contains_type(getattr(obj, f.name), target)
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return any(_contains_type(item, target) for item in obj)
    return False


def delta_ineligibility(query: SeraphQuery) -> Optional[str]:
    """Why this query cannot take the delta path (None when it can).

    The conditions pin down exactly the fragment for which an
    assignment's validity is a function of its footprint alone and the
    terminal projection can be recomputed from the assignment bag.
    """
    if not query.is_continuous:
        return "RETURN-terminal query (evaluates once)"
    if query.references_window_bounds():
        return "references win_start/win_end"
    if len(query.body) != 1 or not isinstance(query.body[0], SeraphMatch):
        return "body is not a single MATCH clause"
    clause = query.body[0].match
    if clause.optional:
        return "OPTIONAL MATCH"
    if len(clause.pattern.paths) != 1:
        return "comma-separated multi-path pattern"
    path = clause.pattern.paths[0]
    if path.shortest is not None:
        return f"{path.shortest} (path validity is graph-global)"
    for rel in path.relationships:
        if rel.var_length is not None and rel.var_length[1] is None:
            return "unbounded variable-length relationship"
    terminal = terminal_clause(query)
    if terminal.skip is not None or terminal.limit is not None:
        return "SKIP/LIMIT terminal (depends on production order)"
    if _contains_type((clause, terminal), cypher_ast.PatternPredicate):
        return "pattern predicate (graph-wide existence check)"
    return None


def pattern_hops(path: cypher_ast.PathPattern) -> int:
    """Maximum number of relationships an embedding of ``path`` crosses.

    Only called on delta-eligible patterns, so every variable-length
    bound is finite.
    """
    hops = 0
    for rel in path.relationships:
        if rel.var_length is None:
            hops += 1
        else:
            high = rel.var_length[1]
            if high is None:
                raise ValueError("unbounded pattern is not delta-eligible")
            hops += high
    return hops


def dirty_neighborhood(
    graph: PropertyGraph, seeds: Set[int], hops: int,
    limit: float = float("inf"),
) -> Set[int]:
    """Node ids within ``hops`` undirected hops of any seed node.

    Any embedding that touches a dirty entity starts within this set:
    its walk has at most ``hops`` edges and passes through a seed, so the
    start node is at most ``hops`` graph edges away from it.

    Growth stops as soon as the set reaches ``limit`` nodes: the caller
    only needs to know that it did.
    """
    seen = {node_id for node_id in seeds if node_id in graph.nodes}
    frontier = set(seen)
    for _ in range(hops):
        if not frontier or len(seen) >= limit:
            break
        grown: Set[int] = set()
        for node_id in frontier:
            for rel in graph.incident(node_id):
                other = rel.other_end(node_id)
                if other not in seen:
                    seen.add(other)
                    grown.add(other)
            if len(seen) >= limit:
                return seen
        frontier = grown
    return seen


def evaluate_delta(
    query: SeraphQuery,
    state: QueryDeltaState,
    graph: PropertyGraph,
    delta: WindowDelta,
    interval: TimeInterval,
    plan,
    expr_cache: Optional[dict] = None,
    span=None,
) -> Tuple[Table, DeltaStats]:
    """One evaluation through the incremental path.

    Maintains ``state`` (the assignment set) and returns the query's
    output table plus bookkeeping for the engine's counters.  The caller
    guarantees :func:`delta_ineligibility` returned None for ``query``.

    ``span`` is an optional open trace span (:mod:`repro.obs.trace`);
    the chosen path (full refresh / no-op / anchored re-match) and its
    retain/recompute counts are annotated onto it.

    ``plan`` is the query's compiled
    :class:`~repro.cypher.physical.PhysicalPlan`: its MATCH stage supplies
    the pattern to match (join order and orientation baked in at compile
    time, or planned now when the plan is un-hoisted).
    """
    base_scope = {WIN_START: interval.start, WIN_END: interval.end}
    evaluator = QueryEvaluator(graph, base_scope=base_scope,
                               compile_cache=expr_cache)
    clause = query.body[0].match
    out_fields = frozenset(clause.pattern.free_variables())
    pattern = plan.stages[0].planned(graph, frozenset(base_scope))

    where_fn = (
        evaluator._compiled(clause.where) if clause.where is not None else None
    )

    def matches(first_candidates=None):
        found: List[Tuple[Record, Footprint]] = []
        for bindings, footprint in evaluator.matcher.match_pattern_traced(
            pattern, base_scope, first_candidates=first_candidates
        ):
            if where_fn is not None:
                scope = dict(base_scope)
                scope.update(bindings)
                if Ternary.of(
                    where_fn(evaluator.evaluator, scope)
                ) is not Ternary.TRUE:
                    continue
            found.append((Record(bindings).project(out_fields), footprint))
        return found

    if not state.valid:
        state.assignments = matches()
        state.fields = out_fields
        state.valid = True
        stats = DeltaStats(
            full_refresh=True, retained=0, recomputed=len(state.assignments)
        )
    elif not (seeds := delta.seed_node_ids()):
        stats = DeltaStats(
            full_refresh=False, retained=len(state.assignments), recomputed=0
        )
    else:
        # Cost guard first: a tick that will full-refresh pays for
        # neither the retention filter nor the rest of the walk.
        anchor_estimate = node_anchor_cost(
            pattern.paths[0].nodes[0], graph, frozenset(base_scope)
        )
        candidates = dirty_neighborhood(
            graph, seeds, pattern_hops(pattern.paths[0]),
            limit=anchor_estimate,
        )
        if len(candidates) >= anchor_estimate:
            # The anchored walk would start from at least as many nodes
            # as a fresh one — recompute the assignment set outright.
            state.assignments = matches()
            stats = DeltaStats(
                full_refresh=True,
                retained=0,
                recomputed=len(state.assignments),
            )
        else:
            dirty = delta.dirty_entities()
            retained = [
                assignment
                for assignment in state.assignments
                if not (assignment[1] & dirty)
            ]
            fresh = [
                (record, footprint)
                for record, footprint in matches(first_candidates=candidates)
                if footprint & dirty
            ]
            state.assignments = retained + fresh
            stats = DeltaStats(
                full_refresh=False,
                retained=len(retained),
                recomputed=len(fresh),
            )
    if span is not None:
        if stats.full_refresh:
            path = "full_refresh"
        elif stats.recomputed:
            path = "anchored_rematch"
        else:
            path = "retained"
        span.annotate(
            path=path,
            retained=stats.retained,
            recomputed=stats.recomputed,
        )
    table = Table(
        (record for record, _footprint in state.assignments),
        fields=state.fields,
    )
    result = evaluator.apply_clause(terminal_clause(query), table)
    return result, stats
