"""Layer rows read from the public unified status document.

The same document comes from ``engine.unified_status()`` in process and
from ``GET /tenants/<t>/status`` over the wire, so both loops derive
their ``seraph.*`` / ``stage.*`` / ``cypher.*`` / ``runtime.*`` rows
here, from the difference of two readings (timing start, timing end).
"""

from __future__ import annotations

from typing import Dict, Mapping

STAGES = ("window_advance", "snapshot_build", "plan_compile", "vectorize",
          "reuse", "match_delta", "match_full", "report", "sink", "total")

_QUERY_COUNTERS = (
    "evaluations", "reused", "delta", "delta_full_refreshes",
    "assignments_retained", "assignments_recomputed", "plan_compiles",
)


def engine_counters(document: Mapping, query: str) -> Dict[str, float]:
    """Every accumulating number the status surfaces for ``query``."""
    engine = document["engine"]
    entry = engine["queries"][query]
    out: Dict[str, float] = {key: entry[key] for key in _QUERY_COUNTERS}
    out["plan_hits"] = engine["planner"]["hits"]
    out["plan_misses"] = engine["planner"]["misses"]
    resilience = document.get("resilience")
    metrics = resilience["metrics"] if resilience else {}
    out["reordered"] = metrics.get("reordered", 0)
    out["late_dropped"] = metrics.get("late_dropped", 0)
    histograms = {}
    if document["obs"]["enabled"]:
        histograms = document["obs"]["metrics"]["histograms"]
    for stage in STAGES:
        entry = histograms.get(f"query.{query}.stage.{stage}")
        out[f"stage.{stage}"] = entry["sum"] if entry else 0.0
    return out


def difference(after: Mapping[str, float],
               before: Mapping[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def engine_rows(delta: Mapping[str, float],
                evaluating_s: float) -> Dict[str, float]:
    """``evaluating_s`` is the driver-side span that encloses the
    evaluations (0 when the driver cannot see it, as over the wire)."""
    evaluations = max(1, delta["evaluations"])
    recomputed = delta["assignments_recomputed"]
    lookups = delta["plan_hits"] + delta["plan_misses"]
    rows = {
        "seraph.evaluations": delta["evaluations"],
        "seraph.delta_path_share":
            (delta["delta"] + delta["delta_full_refreshes"]) / evaluations,
        "seraph.delta_full_refresh_share":
            delta["delta_full_refreshes"] / evaluations,
        "seraph.reuse_share": delta["reused"] / evaluations,
        "seraph.assignments_recomputed_share":
            recomputed / max(1, recomputed + delta["assignments_retained"]),
        "cypher.plan_cache_hit_share": delta["plan_hits"] / max(1, lookups),
        "cypher.plan_compiles": delta["plan_compiles"],
        "runtime.late_dead_lettered": delta["late_dropped"],
        "runtime.reordered": delta["reordered"],
    }
    for stage in STAGES:
        rows[f"stage.{stage}_s"] = delta[f"stage.{stage}"]
    # The engine builds the snapshot lazily, inside whichever match stage
    # first asks for the graph: matching proper is the difference.
    rows["stage.match_self_s"] = (
        delta["stage.match_delta"] + delta["stage.match_full"]
        - delta["stage.snapshot_build"]
    )
    rows["stage.unattributed_s"] = (
        evaluating_s - delta["stage.total"] if evaluating_s else 0.0
    )
    return rows
