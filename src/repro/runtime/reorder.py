"""Bounded out-of-order tolerance: a reorder buffer with a watermark.

The paper's stream model (Definition 5.2) requires non-decreasing
arrival instants, and the seed engine enforces it by raising
:class:`~repro.errors.OutOfOrderEventError`.  Real queues deliver
slightly reordered batches, so the runtime puts a :class:`ReorderBuffer`
in front of the engine:

* the **watermark** is the largest instant seen so far;
* an element is *ripe* — safe to release in sorted order — once the
  watermark has advanced past ``instant + allowed_lateness``;
* an element older than the release **frontier** (everything at or
  before it was already released) is *too late*: per policy it is
  dropped, dead-lettered, or raised as
  :class:`~repro.errors.LateEventError`.

With ``allowed_lateness=0`` the buffer is a transparent pass-through for
in-order streams: each arrival immediately advances the watermark past
itself and is released on the spot.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.errors import LateEventError
from repro.graph.temporal import TimeInstant
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.policies import FaultPolicy
from repro.stream.stream import StreamElement


class ReorderBuffer:
    """Re-sequences bounded out-of-order arrivals for one stream."""

    def __init__(
        self,
        allowed_lateness: int = 0,
        late_policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        dead_letters: Optional[DeadLetterQueue] = None,
        stream: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if allowed_lateness < 0:
            raise ValueError("allowed lateness must be >= 0")
        self.allowed_lateness = allowed_lateness
        self.late_policy = late_policy
        self.dead_letters = dead_letters
        self.stream = stream
        #: counts ``resilience.{reordered,late_events,late_dropped}`` and
        #: mirrors the buffer's depth/watermark as live gauges.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        label = stream if stream is not None else "default"
        self._depth = self.registry.gauge(
            f"resilience.buffer.{label}.pending")
        self._watermark_gauge = self.registry.gauge(
            f"resilience.buffer.{label}.watermark")
        self._pending: List[Tuple[TimeInstant, int, StreamElement]] = []
        self._arrivals = 0
        self._watermark: Optional[TimeInstant] = None
        self._frontier: Optional[TimeInstant] = None  # released through here

    # -- state -------------------------------------------------------------

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """Largest instant observed so far."""
        return self._watermark

    @property
    def frontier(self) -> Optional[TimeInstant]:
        """Instant through which elements have been released in order."""
        return self._frontier

    @property
    def pending(self) -> List[StreamElement]:
        """Buffered elements, in release (instant, arrival) order."""
        return [item[2] for item in sorted(self._pending)]

    def __len__(self) -> int:
        return len(self._pending)

    # -- core --------------------------------------------------------------

    def offer(self, element: StreamElement) -> List[StreamElement]:
        """Accept one arrival; return the elements that became ripe.

        Ripe elements come out sorted by instant (ties in arrival order),
        so feeding them straight into the engine never trips its
        non-decreasing-instant check.
        """
        if self._frontier is not None and element.instant < self._frontier:
            self._handle_late(element)
            return []
        if self._watermark is not None and element.instant < self._watermark:
            self.registry.inc("resilience.reordered")
        heapq.heappush(
            self._pending, (element.instant, self._arrivals, element)
        )
        self._arrivals += 1
        if self._watermark is None or element.instant > self._watermark:
            self._watermark = element.instant
        released = self._release_ripe()
        self._publish_gauges()
        return released

    def flush(self) -> List[StreamElement]:
        """End-of-stream: release everything still buffered, in order."""
        released: List[StreamElement] = []
        while self._pending:
            released.append(heapq.heappop(self._pending)[2])
        if released:
            self._advance_frontier(released[-1].instant)
        self._publish_gauges()
        return released

    def _publish_gauges(self) -> None:
        self._depth.set(len(self._pending))
        if self._watermark is not None:
            self._watermark_gauge.set(self._watermark)

    def _release_ripe(self) -> List[StreamElement]:
        ripe_until = self._watermark - self.allowed_lateness
        released: List[StreamElement] = []
        while self._pending and self._pending[0][0] <= ripe_until:
            released.append(heapq.heappop(self._pending)[2])
        self._advance_frontier(ripe_until)
        return released

    def _advance_frontier(self, instant: TimeInstant) -> None:
        if self._frontier is None or instant > self._frontier:
            self._frontier = instant

    def restore_state(
        self,
        watermark: Optional[TimeInstant],
        frontier: Optional[TimeInstant],
        pending: List[StreamElement],
    ) -> None:
        """Reload checkpointed buffer state (pending in release order)."""
        self._watermark = watermark
        self._frontier = frontier
        self._pending = []
        self._arrivals = 0
        for element in pending:
            heapq.heappush(
                self._pending, (element.instant, self._arrivals, element)
            )
            self._arrivals += 1

    def _handle_late(self, element: StreamElement) -> None:
        self.registry.inc("resilience.late_events")
        if self.late_policy is FaultPolicy.FAIL_FAST:
            raise LateEventError(
                f"element at {element.instant} is beyond the allowed "
                f"lateness (release frontier {self._frontier}, "
                f"allowed lateness {self.allowed_lateness})"
            )
        self.registry.inc("resilience.late_dropped")
        if (
            self.late_policy is FaultPolicy.DEAD_LETTER
            and self.dead_letters is not None
        ):
            self.dead_letters.append(
                element,
                reason=(
                    f"late event: instant {element.instant} <= release "
                    f"frontier {self._frontier}"
                ),
                stream=self.stream,
                instant=element.instant,
            )

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(lateness={self.allowed_lateness}, "
            f"pending={len(self._pending)}, watermark={self._watermark}, "
            f"frontier={self._frontier})"
        )
