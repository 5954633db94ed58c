"""Per-evaluation trace spans with nested timing.

A :class:`Span` is one timed operation (an evaluation, a window advance,
a sink delivery attempt); spans nest into a tree, and one engine run
produces a forest of root spans (``ingest`` and ``evaluate`` roots).

Two parenting modes coexist, because the engine's evaluation pipeline is
split across methods while sink/retry instrumentation is lexically
nested:

* **explicit** — :meth:`Tracer.start` opens a span under a given parent
  (or as a root) without touching any ambient state; the caller closes
  it with :meth:`Span.finish`.  The engine opens each per-evaluation
  root span this way and hands it to the stage methods as ``parent``.
* **ambient** — :meth:`Tracer.span` returns a context manager that
  parents under the innermost open ``span()`` block (or the explicit
  ``parent=`` argument) and closes on exit.  Retry spans created deep
  inside a :class:`~repro.runtime.resilient_sink.ResilientSink` land
  under the engine's ``sink`` span this way.

A span measured elsewhere (the engine's ``dataflow_stage``) joins the
trace with :meth:`Tracer.add_completed`.

The disabled path is :data:`NOOP_TRACER`: every call returns the shared
:data:`NOOP_SPAN` singleton and records nothing, so instrumented code
guarded by a single ``if obs.enabled`` branch costs one attribute read.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

_AMBIENT = object()  # sentinel: parent under the innermost open span()


class Span:
    """One timed operation; a node of the trace tree."""

    __slots__ = ("name", "tags", "start", "end", "children", "_tracer")

    def __init__(self, name: str, tags: Dict[str, Any], start: float,
                 tracer: "Tracer"):
        self.name = name
        self.tags = tags
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer

    def annotate(self, **tags: Any) -> "Span":
        """Attach key/value tags to the span (chains)."""
        self.tags.update(tags)
        return self

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self.end if self.end is not None else self._tracer._clock()
        return end - self.start

    def finish(self) -> "Span":
        """Close an explicitly started span (idempotent)."""
        if self.end is None:
            self.end = self._tracer._clock()
        return self

    # -- ambient context-manager protocol ---------------------------------

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: unwind past mismatched exits
            while stack and stack.pop() is not self:
                pass
        self.finish()

    def to_dict(self, epoch: float) -> Dict[str, Any]:
        """JSON-safe form; times are seconds relative to tracer creation."""
        return {
            "name": self.name,
            "start": round(self.start - epoch, 9),
            "duration": round(self.duration_seconds, 9),
            "tags": dict(self.tags),
            "children": [child.to_dict(epoch) for child in self.children],
        }

    def find(self, name: str) -> List["Span"]:
        """All descendants (incl. self) with the given name, pre-order."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration_seconds:.6f}s"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NoopSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()
    children: tuple = ()
    tags: dict = {}
    name = "noop"
    duration_seconds = 0.0

    def annotate(self, **tags: Any) -> "_NoopSpan":
        return self

    def finish(self) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds the span forest of one observed run.

    ``limit`` bounds memory on long runs: past it, new spans become the
    no-op singleton and are counted in :attr:`dropped` instead of
    recorded (the trace document reports both numbers).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, limit: int = 100_000):
        self._clock = clock
        self.limit = limit
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._epoch = clock()
        self.created = 0
        self.dropped = 0

    # -- span creation ----------------------------------------------------

    def _make(self, name: str, parent: Optional[Span],
              tags: Dict[str, Any]) -> Span:
        if self.created >= self.limit:
            self.dropped += 1
            return NOOP_SPAN  # type: ignore[return-value]
        self.created += 1
        span = Span(name, tags, self._clock(), self)
        if parent is None or isinstance(parent, _NoopSpan):
            self.roots.append(span)
        else:
            parent.children.append(span)
        return span

    def start(self, name: str, parent: Optional[Span] = None,
              **tags: Any) -> Span:
        """Open a span with explicit parenting (``None`` → root).

        Does not touch the ambient stack; close it with
        :meth:`Span.finish`.
        """
        return self._make(name, parent, tags)

    def span(self, name: str, parent: Any = _AMBIENT, **tags: Any) -> Span:
        """Open a context-manager span (default parent: innermost open
        ``span()`` block)."""
        if parent is _AMBIENT:
            parent = self._stack[-1] if self._stack else None
        return self._make(name, parent, tags)

    def add_completed(self, name: str, duration: float,
                      parent: Optional[Span] = None,
                      start_offset: float = 0.0, **tags: Any) -> Span:
        """Record an already-measured span.

        ``start_offset`` places the child relative to its parent's start
        (or the tracer epoch for roots).
        """
        span = self._make(name, parent, tags)
        if isinstance(span, _NoopSpan):
            return span
        base = parent.start if isinstance(parent, Span) else self._epoch
        span.start = base + start_offset
        span.end = span.start + duration
        return span

    # -- introspection ----------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict(self._epoch) for span in self.roots]

    def find(self, name: str) -> List[Span]:
        found: List[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def reset(self) -> None:
        """Drop every recorded span (counters restart too)."""
        self.roots = []
        self._stack = []
        self.created = 0
        self.dropped = 0
        self._epoch = self._clock()


class NoopTracer(Tracer):
    """The disabled tracer: stateless, returns :data:`NOOP_SPAN`."""

    enabled = False
    roots: tuple = ()  # type: ignore[assignment]
    created = 0
    dropped = 0

    def __init__(self):  # no state at all
        self._clock = time.perf_counter
        self._stack = []
        self._epoch = 0.0
        self.limit = 0

    def start(self, name: str, parent: Optional[Span] = None,
              **tags: Any) -> Span:
        return NOOP_SPAN  # type: ignore[return-value]

    def span(self, name: str, parent: Any = _AMBIENT, **tags: Any) -> Span:
        return NOOP_SPAN  # type: ignore[return-value]

    def add_completed(self, name: str, duration: float,
                      parent: Optional[Span] = None,
                      start_offset: float = 0.0, **tags: Any) -> Span:
        return NOOP_SPAN  # type: ignore[return-value]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def reset(self) -> None:
        return None


NOOP_TRACER = NoopTracer()
