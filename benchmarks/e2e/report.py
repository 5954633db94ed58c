"""The result record of one run: what both loops report the same way."""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Mapping, Optional, Sequence

from . import check, layers, measure

#: set-ups timed per run; the median is reported
SETUP_REPEATS = 5


def outcome(workload: str, seed: int, summary: Mapping[str, float],
            reference: check.Reference, emitted: Dict[int, str],
            in_order: Sequence[str], complete: bool, missing: int,
            refused: int = 0, attempted: Optional[int] = None,
            frames_equal_offline: bool = True, **detail) -> Dict[str, object]:
    """Check the emissions and count the failed events.

    ``attempted`` defaults to the timed events of ``summary`` (a served
    traced run also attempts its open-loop phase).  failed = expected
    emission missing or push refused; a wrong emission
    (sampled check, digest, or served frames that differ from the
    offline run's) fails every event of the run.
    """
    start = time.perf_counter()
    verdict = check.verify(workload, seed, reference, emitted, in_order, complete)
    check_s = time.perf_counter() - start
    if attempted is None:
        attempted = int(summary["timed_events"])
    wrong = verdict["wrong"] or not frames_equal_offline
    return {
        "attempted": attempted,
        "failed": attempted if wrong else min(attempted, missing + refused),
        "detail": {
            **detail, **verdict, "missing_emissions": missing,
            "frames_equal_offline": frames_equal_offline,
            "check_s": check_s,
            **{key: summary[key] for key in (
                "timed_events", "latency_samples", "timed_wall_s",
                "mean_events_per_s", "latency_p50_all_ms",
                "latency_p90_all_ms")},
        },
    }


def end_to_end(setups: List[float], summary: Mapping[str, float],
               peak_rss: float) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        **{key: summary[key] for key in (
            "events_per_s", "cpu_s_per_kevent",
            "latency_p50_ms", "latency_p90_ms")},
    }


def shared_layers(summary: Mapping[str, float], plain_marks, traced_marks,
                  delta: Mapping[str, float], evaluating_s: float,
                  reference: check.Reference, rss_after_setup: float,
                  generate_s: float) -> Dict[str, float]:
    """Layer rows every workload has a source for."""
    # Tracing overhead: both passes saw the same events; block medians,
    # like the end-to-end rate, so one stall in either pass is not charged
    # to the tracer.
    plain_rate = statistics.median(measure.block_rates(plain_marks))
    traced_rate = statistics.median(measure.block_rates(traced_marks))
    return {
        **layers.engine_rows(delta, evaluating_s),
        **reference.rows(max(1, delta["evaluations"])),
        "obs.trace_overhead_share": plain_rate / traced_rate - 1.0,
        "proc.rss_after_setup_mb": rss_after_setup,
        "usecases.generate_s": generate_s,
        "e2e.timed_events": summary["timed_events"],
        "e2e.timed_wall_s": summary["timed_wall_s"],
    }
