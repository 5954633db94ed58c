"""Property graph streams and substreams (Definitions 5.2, 5.3).

A property graph stream is a sequence of pairs ``(G, ω)`` with
non-decreasing ω.  :class:`PropertyGraphStream` is an *appendable recorded
stream*: the engine ingests elements into it, and substream extraction
(``S[τ]``) serves windowing.  For truly unbounded sources see
:mod:`repro.stream.source`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import OutOfOrderEventError
from repro.graph.model import PropertyGraph
from repro.graph.temporal import TimeInstant
from repro.stream.timeline import TimeInterval


@dataclass(frozen=True, slots=True)
class StreamElement:
    """One stream pair (G, ω).

    ``slots=True``: the engine holds one instance per retained event and
    windows reference them again, so the per-instance dict is measurable
    overhead at stream scale.
    """

    graph: PropertyGraph
    instant: TimeInstant

    def __repr__(self) -> str:
        return f"({self.graph!r} @ {self.instant})"


class PropertyGraphStream:
    """A recorded, appendable property graph stream.

    Elements must arrive with non-decreasing instants (Definition 5.2);
    violations raise :class:`OutOfOrderEventError` (an engine's ingress
    re-sequences a disordered feed before it reaches the stream).
    """

    def __init__(self, elements: Iterable[StreamElement] = ()):
        self._elements: List[StreamElement] = []
        self._instants: List[TimeInstant] = []
        for element in elements:
            self.append(element)

    def append(self, element: StreamElement) -> None:
        """Ingest one element at the head of the stream."""
        if self._instants and element.instant < self._instants[-1]:
            raise OutOfOrderEventError(
                f"element at {element.instant} arrived after stream head "
                f"{self._instants[-1]}"
            )
        self._instants.append(element.instant)
        self._elements.append(element)

    def push(self, graph: PropertyGraph, instant: TimeInstant) -> StreamElement:
        """Convenience: wrap and append."""
        element = StreamElement(graph=graph, instant=instant)
        self.append(element)
        return element

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> StreamElement:
        return self._elements[index]

    @property
    def elements(self) -> Tuple[StreamElement, ...]:
        return tuple(self._elements)

    @property
    def head_instant(self) -> Optional[TimeInstant]:
        """Largest instant seen so far (None for the empty stream)."""
        return self._instants[-1] if self._instants else None

    @property
    def first_instant(self) -> Optional[TimeInstant]:
        return self._instants[0] if self._instants else None

    # -- substreams (Definition 5.3) -------------------------------------------

    def substream(self, interval: TimeInterval) -> List[StreamElement]:
        """S[τ]: the elements with ω ∈ [τ.start, τ.end)."""
        lo = bisect.bisect_left(self._instants, interval.start)
        hi = bisect.bisect_left(self._instants, interval.end)
        return self._elements[lo:hi]

    def substream_closed(
        self, start_exclusive: TimeInstant, end_inclusive: TimeInstant
    ) -> List[StreamElement]:
        """Elements with ω ∈ (start, end] — the TRAILING window membership
        used by the paper's worked example (see DESIGN.md §3)."""
        lo = bisect.bisect_right(self._instants, start_exclusive)
        hi = bisect.bisect_right(self._instants, end_inclusive)
        return self._elements[lo:hi]

    def evict_count(self, count: int) -> List[StreamElement]:
        """Drop (and return) the oldest ``count`` elements."""
        evicted = self._elements[:count]
        del self._elements[:count]
        del self._instants[:count]
        return evicted

    def evict_before(self, instant: TimeInstant) -> List[StreamElement]:
        """Drop (and return) all elements with ω < instant.

        This is how the engine bounds memory: once no registered window can
        reach an element again, it is evicted.
        """
        cut = bisect.bisect_left(self._instants, instant)
        evicted = self._elements[:cut]
        del self._elements[:cut]
        del self._instants[:cut]
        return evicted

    def __repr__(self) -> str:
        if not self._elements:
            return "PropertyGraphStream(empty)"
        return (
            f"PropertyGraphStream({len(self._elements)} elements, "
            f"[{self._instants[0]}..{self._instants[-1]}])"
        )
