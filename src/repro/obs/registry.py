"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every named instrument of an engine,
namespaced with dots (``engine.ingested``, ``query.<name>.evaluations``,
``resilience.reordered``, ``dataflow.stages``,
``service.tenant.<t>.events``).  It is the only counter store: every
layer bumps its instruments here, and ``status()`` /
``unified_status()`` are reads of it (docs/OBSERVABILITY.md has the
name table).

Histograms keep a fixed-size **ring-buffer reservoir** (latest N
observations) next to exact count/sum/min/max, so percentile queries
(p50/p95/p99) stay O(reservoir) regardless of run length.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import MetricsError


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """Last-written point-in-time value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming distribution with a ring-buffer reservoir.

    ``count``/``total``/``min``/``max`` are exact over every observation;
    percentiles are computed over the newest ``reservoir`` observations
    (nearest-rank).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_ring", "_next")
    kind = "histogram"

    def __init__(self, name: str, reservoir: int = 512):
        if reservoir < 1:
            raise MetricsError("histogram reservoir must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._ring: list = [0.0] * reservoir
        self._next = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._ring[self._next % len(self._ring)] = value
        self._next += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> list:
        """The retained reservoir (newest ``len(ring)`` observations)."""
        filled = min(self.count, len(self._ring))
        return self._ring[:filled]

    def percentile(self, percentile: float) -> float:
        """Nearest-rank percentile over the reservoir (0 < p ≤ 1).

        Returns 0.0 when nothing was observed; raises
        :class:`~repro.errors.MetricsError` on an out-of-range p.
        """
        if not 0.0 < percentile <= 1.0:
            raise MetricsError(
                f"percentile must be in (0, 1], got {percentile!r}"
            )
        ordered = sorted(self.samples())
        if not ordered:
            return 0.0
        rank = max(0, int(percentile * len(ordered) + 0.999999) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Re-requesting a name always returns the same instrument; requesting
    it as a different kind raises :class:`~repro.errors.MetricsError`.
    """

    def __init__(self, reservoir: int = 512):
        self.reservoir = reservoir
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory, kind: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise MetricsError(
                f"metric {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(
            name, lambda n: Histogram(n, reservoir=self.reservoir),
            "histogram",
        )

    def declare(self, namespace: str, names: Iterable[str]) -> None:
        """Create the counters ``namespace.<name>`` now, so an export
        carries them at zero instead of omitting them until first use."""
        for name in names:
            self.counter(f"{namespace}.{name}")

    def get(self, name: str) -> Optional[Any]:
        """The instrument under ``name``, or None."""
        return self._instruments.get(name)

    # -- write shorthands -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- read -------------------------------------------------------------

    def value(self, name: str):
        """A counter's or gauge's current value; 0 before first use."""
        instrument = self._instruments.get(name)
        return instrument.value if instrument is not None else 0

    def values(self, namespace: str, names: Iterable[str]) -> Dict[str, Any]:
        """``{name: value}`` of ``namespace.<name>`` for each name."""
        return {name: self.value(f"{namespace}.{name}") for name in names}

    def under(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """``(name-after-prefix, instrument)`` pairs, sorted by name."""
        for name in sorted(self._instruments):
            if name.startswith(prefix):
                yield name[len(prefix):], self._instruments[name]

    def discard(self, prefix: str) -> None:
        """Forget every instrument under ``prefix`` (a deregistered
        query's ledger must not leak into its successor's)."""
        for name in [n for n in self._instruments if n.startswith(prefix)]:
            del self._instruments[name]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: ``{"counters", "gauges", "histograms"}``."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.kind == "counter":
                counters[name] = instrument.value
            elif instrument.kind == "gauge":
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments
