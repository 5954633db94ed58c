"""External span recorder: the driver's stopwatch around public calls.

Spans are recorded from the benchmark's side of each layer boundary
(``ingest_element``, ``advance_to``, the sink callback, HTTP round
trips); nothing under ``src/`` is instrumented by this package.  Each
span is ``(name, start, end, parent, event)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``event`` the index of the
stream event that caused it, the identifier all spans of one event
share.  Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

Span = Tuple[str, float, float, int, int]


class _OpenSpan:
    __slots__ = ("_recorder", "_name", "_event", "_start", "_index")

    def __init__(self, recorder: "SpanRecorder", name: str, event: int):
        self._recorder = recorder
        self._name = name
        self._event = event

    def __enter__(self) -> None:
        recorder = self._recorder
        self._index = len(recorder.spans)
        recorder.spans.append(None)  # reserve the slot: parents precede children
        recorder._open.append(self._index)
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        recorder = self._recorder
        recorder._open.pop()
        parent = recorder._open[-1] if recorder._open else -1
        recorder.spans[self._index] = (
            self._name, self._start, end, parent, self._event
        )


class SpanRecorder:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, event: int) -> _OpenSpan:
        return _OpenSpan(self, name, event)

    def add(self, name: str, start: float, end: float, event: int) -> None:
        """Record an already-timed interval under the innermost open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, event))

    def totals(self, since: float = 0.0) -> Dict[str, float]:
        """Seconds per span name, over spans that started at/after ``since``."""
        out: Dict[str, float] = {}
        for name, start, end, _parent, _event in self.spans:
            if start >= since:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_totals(self, since: float = 0.0) -> Dict[str, float]:
        """Like :meth:`totals`, minus the time each span's children cover."""
        out = self.totals(since)
        for name, start, end, parent, _event in self.spans:
            if parent >= 0 and start >= since:
                parent_name = self.spans[parent][0]
                out[parent_name] -= end - start
        return out

    def durations(self, name: str, since: float = 0.0) -> List[float]:
        return [
            end - start for span_name, start, end, _p, _e in self.spans
            if span_name == name and start >= since
        ]

    def write(self, path: str) -> None:
        """One JSON object per line, in start order of the parents."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, event) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "event": event,
                }) + "\n")
