"""Process readings and the one place timings are summarised.

Every loop (in-process, service closed, service open) hands the same
three things to :func:`summarise`: when each event was sent (or due),
when the emission for its instant arrived, and a list of block marks
``(events done, wall clock, CPU seconds of the system under test)``.
Throughput, CPU cost and the latency percentiles are the *median over
blocks* (each block's rate, CPU per event, p50, p90), not one figure
over the whole section: a scheduler stall or a noisy neighbour lands in
a few blocks of ~5 % of the run each and cannot move the reported value,
which is what keeps the run-to-run spread inside the regression bounds
on a shared 2-core machine.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Mark = Tuple[int, float, float]

#: blocks per timed section (fewer when the section is short)
BLOCKS = 20
#: open loop: a frame later than this after its event was due is a miss
LIMIT_MS = 100.0

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
_TICK = os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb(pid: Optional[int] = None) -> float:
    with open(f"/proc/{pid or 'self'}/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


def child_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another live process.

    Linux encodes "the CPU-time clock of process ``pid``" as a clock id
    (what ``clock_getcpuclockid(3)`` returns); reading it gives
    nanosecond resolution where ``/proc/<pid>/stat`` counts 10 ms ticks,
    too coarse for a per-block median.  The tick count is the fallback.
    """
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # The command name may hold spaces; count fields after ')'.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK


def child_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Marks:
    """The block marks of one timed section of at most ``events`` events.

    ``cpu`` reads the CPU seconds of the system under test.  Call
    :meth:`done` after every event and :meth:`close` once at the end.
    """

    def __init__(self, events: int, cpu: Callable[[], float]):
        self._block = max(1, events // BLOCKS)
        self._cpu = cpu
        self.start = time.perf_counter()
        self.marks: List[Mark] = [(0, self.start, cpu())]

    def done(self, count: int) -> None:
        if count % self._block == 0:
            self.marks.append((count, time.perf_counter(), self._cpu()))

    def close(self, count: int) -> List[Mark]:
        if self.marks[-1][0] != count:
            self.marks.append((count, time.perf_counter(), self._cpu()))
        return self.marks


def block_rates(marks: Sequence[Mark]) -> List[float]:
    """Events per wall second of each block."""
    return [(n1 - n0) / (w1 - w0)
            for (n0, w0, _c0), (n1, w1, _c1) in zip(marks, marks[1:])]


def percentile(values: Sequence[float], q: int) -> float:
    """``q`` in tenths: 5 is the median, 9 the 90th percentile."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def summarise(
    sent: Sequence[float],
    arrived: Sequence[Optional[float]],
    marks: List[Mark],
) -> Dict[str, float]:
    """Throughput, CPU cost and latency percentiles of one timed section.

    ``arrived[i]`` is ``None`` when event ``i`` never produced an
    emission inside the section; such events carry no latency sample
    (they are counted as failed by the caller when one was expected).
    """
    latencies: List[Optional[float]] = [
        (got - start) * 1000.0 if got is not None and got >= start else None
        for start, got in zip(sent, arrived)
    ]
    sampled = [value for value in latencies if value is not None]
    cpus, p50s, p90s = [], [], []
    for (n0, _w0, c0), (n1, _w1, c1) in zip(marks, marks[1:]):
        cpus.append((c1 - c0) * 1000.0 / (n1 - n0))
        block = [value for value in latencies[n0:n1] if value is not None]
        if block:
            p50s.append(percentile(block, 5))
            p90s.append(percentile(block, 9))
    done, wall = marks[-1][0] - marks[0][0], marks[-1][1] - marks[0][1]
    return {
        "events_per_s": statistics.median(block_rates(marks)),
        "cpu_s_per_kevent": statistics.median(cpus),
        "latency_p50_ms": statistics.median(p50s),
        "latency_p90_ms": statistics.median(p90s),
        "latency_samples": len(sampled),
        # the plain percentiles over every sample, for the record
        "latency_p50_all_ms": percentile(sampled, 5),
        "latency_p90_all_ms": percentile(sampled, 9),
        # a frame that never came misses the limit too
        "limit_miss_share": 1.0 - sum(
            1 for value in sampled if value <= LIMIT_MS) / max(1, len(sent)),
        "timed_events": done,
        "timed_wall_s": wall,
        "mean_events_per_s": done / wall,
    }
