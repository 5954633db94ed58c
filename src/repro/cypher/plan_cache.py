"""Compile-once plan caching keyed by (query text, statistics band).

A physical plan bakes in join order, orientation, and seek choices made
from cheap cardinality statistics.  Those choices stay good while the
statistics stay in the same *band* — we quantize every count to its bit
length (0, 1, 2, 3–4, 5–8, …), so a cached plan survives ordinary
window-to-window churn and is recompiled only when a referenced count
crosses a power-of-two boundary (the classic log-scale invalidation
band: cost ratios inside one band are below 2x, within the noise of the
heuristic cost model anyway).

The band signature covers exactly what compilation reads: per MATCH
window, the graph order/size bands plus the bands of every label and
relationship type the query's patterns mention.

Plans are retained per ``(query text, band)``, a few bands per query: a
statistic that oscillates across a boundary flips between two cached
plans instead of recompiling on every crossing.

``PlanCache(hoist=False)`` (the reference twin's cache) holds
un-hoisted plans, which read no statistics: one plan per query, under
the empty band.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.cypher import ast
from repro.cypher.physical import PhysicalPlan, compile_query

__all__ = ["PlanCache", "stats_band", "band_signature"]

#: Bands retained per query text; the oldest is evicted beyond this.
#: A signature has several independently oscillating counts: Listing 5
#: over a steady rental stream wanders among about eight of them.
PLANS_PER_QUERY = 8


def stats_band(count: int) -> int:
    """Log-scale quantization: counts in [2^(b-1), 2^b) share band ``b``."""
    return int(count).bit_length()


def _pattern_names(pattern: ast.Pattern):
    """(labels, relationship types) a pattern's cost estimate reads."""
    labels = set()
    types = set()
    for path in pattern.paths:
        for node in path.nodes:
            labels.update(node.labels)
        for rel in path.relationships:
            types.update(rel.types)
    return labels, types


def band_signature(
    query,
    stats_for: Callable[[str, int], Any],
    quantize: Callable[[int], int] = stats_band,
) -> tuple:
    """The invalidation key: per-window quantized statistics.

    ``quantize`` defaults to :func:`stats_band`; passing ``int`` (the
    identity on counts) turns the cache into an exact-statistics cache —
    useful in tests that want plan recompilation on any drift.
    """
    from repro.seraph.ast import SeraphMatch

    entries = []
    for clause in query.body:
        if not isinstance(clause, SeraphMatch):
            continue
        window_key = (clause.stream_name, clause.within)
        stats = stats_for(*window_key)
        labels, types = _pattern_names(clause.match.pattern)
        entries.append(
            (
                window_key,
                quantize(stats.order),
                quantize(stats.size),
                tuple(
                    (label, quantize(stats.label_count(label)))
                    for label in sorted(labels)
                ),
                tuple(
                    (rel_type, quantize(stats.rel_type_count(rel_type)))
                    for rel_type in sorted(types)
                ),
            )
        )
    return tuple(entries)


class PlanCache:
    """Per-registry cache of compiled plans with hit/invalidation stats."""

    def __init__(
        self, quantize: Callable[[int], int] = stats_band, hoist: bool = True
    ):
        self._quantize = quantize
        self.hoist = hoist
        self._plans: Dict[str, Dict[tuple, PhysicalPlan]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def plan_for(
        self, query, stats_for: Callable[[str, int], Any]
    ) -> PhysicalPlan:
        """The cached plan for ``query`` under the current band; compiles
        on the first visit to a band (or after its eviction)."""
        band = (
            band_signature(query, stats_for, self._quantize)
            if self.hoist else ()
        )
        bands = self._plans.get(query.text)
        if bands is not None and band in bands:
            self.hits += 1
            return bands[band]
        if bands is not None:
            self.invalidations += 1
        self.misses += 1
        plan = compile_query(query, stats_for, band=band, hoist=self.hoist)
        bands = self._plans.setdefault(query.text, {})
        if len(bands) >= PLANS_PER_QUERY:
            del bands[next(iter(bands))]
        bands[band] = plan
        return plan

    def evict(self, query) -> None:
        """Drop the plans cached for ``query`` (on deregistration)."""
        self._plans.pop(query.text, None)

    def __len__(self) -> int:
        return sum(len(bands) for bands in self._plans.values())

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "plans": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
