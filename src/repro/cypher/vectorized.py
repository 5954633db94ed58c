"""Set-at-a-time candidate pruning between the physical plan and the matcher.

The matcher (:mod:`repro.cypher.matcher`) historically filtered every
start candidate and every expanded neighbour one Python loop iteration at
a time: a ``frozenset(labels) <= node.labels`` check plus an
``ExpressionEvaluator`` run per pattern property per candidate.  Cypher's
formal semantics define matching over *sets* of assignments, and both
graph backends already maintain per-label node columns and a type-tagged
``(label, key, value)`` equality index in global node order — so a
pattern's *constant* predicates (labels plus literal property values) can
be evaluated **once per snapshot** as an ordered id-set intersection, and
the per-candidate loop collapses to one set-membership probe.

:class:`CandidatePruner` is that layer.  For each node pattern it derives
a :func:`pattern_signature` (the constant part of the pattern) and
materializes a :class:`PrunedSet`:

* ``ids`` — a frozenset for O(1) membership probes when the matcher
  expands *into* the pattern (``ExpandHop`` / ``VarLengthExpand``
  targets);
* ``nodes`` — the same candidates as an ordered tuple, **in global node
  order**, handed to the matcher for start enumeration.

The superset rule keeps everything byte-identical: the label part of the
intersection is *exact* (per-label columns are exact), the property part
is *exact-or-superset* (the equality index type-tags values so ``1`` and
``1.0`` share a bucket, mirroring ``cypher_equals``), and the matcher's
residual ``_bind_node`` checks still run on every surviving candidate.
A membership *failure* is therefore a definitive rejection, while a pass
still gets re-checked — the same contract
:meth:`PropertyGraph.nodes_with_property` already follows.

Fallbacks (the pruner returns ``None`` and the unpruned enumeration
runs unchanged):

* patterns with no labels — neither backend keeps a global property
  column, so there is nothing to intersect;
* non-constant property predicates (anything but an indexable
  :class:`~repro.cypher.ast.Literal`) are simply left out of the
  signature and handled by the residual checks;
* unindexable literal values (``null``, NaN, lists/maps) likewise stay
  residual.

Memo lifecycle: one memo per *snapshot*.  The candidate sets live in the
graph object's declared ``candidate_sets`` dict, so every evaluator over
the same snapshot (serial, delta, per-worker) shares them, and any graph
change — ``patched()`` overlays, compaction — produces a *new* graph
object with an empty memo, invalidating it by construction.  Both
backends' ``__reduce__`` rebuild from their elements, so the memo is
never pickled to parallel workers; each worker rebuilds per snapshot.
A :class:`CandidatePruner` itself is a per-evaluator handle: its
``build_seconds`` is what *this* evaluation spent building sets.

The pruner reads either backend through the graph read contract
(``label_id_column`` / ``property_id_column`` — id columns in global node
order), so there is one pruner class.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.cypher import ast
from repro.graph.values import property_index_key

#: The constant part of a node pattern: its label set plus the
#: (key, index-bucket) pairs of its indexable literal properties.
PatternSignature = Tuple[frozenset, Tuple[Tuple[str, tuple], ...]]


def pattern_signature(node_pattern: ast.NodePattern) -> Optional[PatternSignature]:
    """The memo key for a node pattern's constant predicates.

    ``None`` marks the pattern unprunable (no labels — both backends key
    their property columns per label, so a label-less pattern has no
    column to intersect).  Non-literal property expressions and
    unindexable literal values are excluded from the signature; they stay
    with the matcher's residual checks, which keeps the pruned set a
    superset of the true matches.
    """
    if not node_pattern.labels:
        return None
    const_props = []
    for key, expression in node_pattern.properties:
        if isinstance(expression, ast.Literal):
            value_key = property_index_key(expression.value)
            if value_key is not None:
                const_props.append((key, value_key))
    return frozenset(node_pattern.labels), tuple(const_props)


class PrunedSet:
    """One pattern's pre-pruned candidates over one snapshot.

    ``nodes`` lists the candidates in **global node order** — the order a
    label scan enumerates — so handing them to the matcher for start
    enumeration preserves emission order exactly.  ``ids`` is the same
    set as a frozenset for membership probes.  ``base_count`` is the
    number of candidates the *unpruned* matcher would have enumerated
    (the smallest per-label column, which is what
    ``nodes_with_labels`` iterates); ``pruned`` is how many of those the
    set operations eliminated before the matcher ever saw them.
    """

    __slots__ = ("ids", "nodes", "base_count")

    def __init__(
        self, ids: frozenset, nodes: Tuple[Any, ...], base_count: int
    ):
        self.ids = ids
        self.nodes = nodes
        self.base_count = base_count

    @property
    def pruned(self) -> int:
        return self.base_count - len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrunedSet(kept={len(self.nodes)}, "
            f"pruned={self.pruned}, base={self.base_count})"
        )


class CandidatePruner:
    """Constant-predicate pruning by ordered id-set intersection over one
    snapshot's id columns (``graph.label_id_column`` /
    ``graph.property_id_column``), memoized in ``graph.candidate_sets``.
    """

    def __init__(self, graph: Any):
        self.graph = graph
        self._memo: Dict[PatternSignature, PrunedSet] = graph.candidate_sets
        #: Seconds this pruner spent in set construction (memo misses) —
        #: the ``vectorize`` observability stage.
        self.build_seconds = 0.0

    def pruned_set(self, node_pattern: ast.NodePattern) -> Optional[PrunedSet]:
        """The pruned candidate set for ``node_pattern``, memoized per
        signature; ``None`` when the pattern is unprunable."""
        signature = pattern_signature(node_pattern)
        if signature is None:
            return None
        try:
            return self._memo[signature]
        except KeyError:
            pass
        started = time.perf_counter()
        result = self._build(signature)
        self.build_seconds += time.perf_counter() - started
        self._memo[signature] = result
        return result

    def _build(self, signature: PatternSignature) -> PrunedSet:
        labels, const_props = signature
        graph = self.graph
        sources = []
        for label in labels:
            ids = graph.label_id_column(label)
            if not ids:
                # Some label has no nodes at all: the intersection is
                # empty, and so was the unpruned enumeration.
                return PrunedSet(frozenset(), (), 0)
            sources.append(ids)
        base_count = min(len(ids) for ids in sources)
        if const_props:
            # The property index is keyed per (label, key); any of the
            # pattern's labels anchors a sound bucket (every true match
            # carries all of them) — pick the rarest to keep it small.
            anchor = min(labels, key=graph.label_count)
            for key, value_key in const_props:
                ids = graph.property_id_column(anchor, key, value_key)
                if not ids:
                    return PrunedSet(frozenset(), (), base_count)
                sources.append(ids)
        # Every source lists ids in global node order, so filtering the
        # smallest source by membership in the rest yields the
        # intersection *in global node order*.
        sources.sort(key=len)
        rest = [set(ids) for ids in sources[1:]]
        if rest:
            kept = tuple(
                node_id
                for node_id in sources[0]
                if all(node_id in other for other in rest)
            )
        else:
            kept = tuple(sources[0])
        nodes = graph.nodes
        return PrunedSet(
            frozenset(kept),
            tuple(nodes[node_id] for node_id in kept),
            base_count,
        )
