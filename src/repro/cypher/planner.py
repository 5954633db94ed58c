"""Heuristic pattern planning (the first of the paper's Section 6
optimization rounds: "query planning at different levels").

Two rewrites, both result-preserving (property-tested against the
unplanned matcher):

* **join ordering** — comma-separated path patterns are reordered so the
  cheapest-anchored pattern runs first and every subsequent pattern
  shares a variable with the already-bound set where possible (avoiding
  Cartesian intermediate results);
* **orientation** — a path whose far end is much more selective than its
  start (bound variable, rare label) is walked from that end instead
  (:meth:`~repro.cypher.ast.PathPattern.reversed_pattern`).

Costs come from cheap per-graph statistics (node counts per label); no
data sampling.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from repro.cypher import ast
from repro.graph.model import PropertyGraph

#: Selectivity bonus for a property map (can't estimate better without
#: value statistics; any equality constraint usually filters hard).
_PROPERTY_FACTOR = 0.1

#: Floor for anchor estimates.  An empty label must not collapse the
#: estimate to exactly 0.0: multiplicative factors (property maps) stop
#: discriminating at zero and every empty-label path ties in
#: :func:`plan_pattern`'s greedy ordering.  The epsilon keeps relative
#: selectivity meaningful while staying far below one real node.
_MIN_ANCHOR = 1e-6


def node_anchor_cost(
    node: ast.NodePattern, graph: PropertyGraph, bound: FrozenSet[str]
) -> float:
    """Estimated candidate count when starting a walk at this node."""
    if node.variable is not None and node.variable in bound:
        return 1.0
    if node.labels:
        estimate = float(
            min(graph.label_count(label) for label in node.labels)
        )
    else:
        estimate = float(graph.order)
    estimate = max(estimate, _MIN_ANCHOR)
    if node.properties:
        estimate *= _PROPERTY_FACTOR
    return estimate


def orient_path(
    path: ast.PathPattern, graph: PropertyGraph, bound: FrozenSet[str]
) -> ast.PathPattern:
    """Walk the path from its cheaper endpoint."""
    if path.shortest is not None or not path.relationships:
        return path
    forward = node_anchor_cost(path.nodes[0], graph, bound)
    backward = node_anchor_cost(path.nodes[-1], graph, bound)
    if backward < forward:
        return path.reversed_pattern()
    return path


def path_cost(
    path: ast.PathPattern, graph: PropertyGraph, bound: FrozenSet[str]
) -> float:
    """Cost of running this path next (its cheaper anchor)."""
    start = node_anchor_cost(path.nodes[0], graph, bound)
    if path.shortest is not None or not path.relationships:
        return start
    return min(start, node_anchor_cost(path.nodes[-1], graph, bound))


def _shares_variable(path: ast.PathPattern, bound: Set[str]) -> bool:
    return any(name in bound for name in path.free_variables())


def plan_pattern(
    pattern: ast.Pattern, graph: PropertyGraph, bound: FrozenSet[str]
) -> ast.Pattern:
    """Reorder and orient a MATCH pattern for the given graph/scope.

    Greedy: repeatedly pick, among the paths connected to the bound
    variable set (or all remaining if none connect — an unavoidable
    Cartesian boundary), the one with the lowest anchor cost.
    """
    if len(pattern.paths) == 1:
        return ast.Pattern(
            paths=(orient_path(pattern.paths[0], graph, bound),)
        )
    remaining: List[ast.PathPattern] = list(pattern.paths)
    known: Set[str] = set(bound)
    ordered: List[ast.PathPattern] = []
    while remaining:
        connected = [
            path for path in remaining if _shares_variable(path, known)
        ]
        candidates = connected if connected else remaining
        best = min(
            candidates,
            key=lambda path: path_cost(path, graph, frozenset(known)),
        )
        remaining.remove(best)
        oriented = orient_path(best, graph, frozenset(known))
        ordered.append(oriented)
        known.update(best.free_variables())
    return ast.Pattern(paths=tuple(ordered))
