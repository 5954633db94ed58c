"""The one human-readable formatter for every metrics surface.

The CLI's run summaries and the registry's ``render()`` exporter both
delegate here, so counter formatting (``name=value`` pairs, millisecond
latencies) is decided in exactly one place.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping


def format_value(value: Any) -> str:
    """Compact scalar formatting: trimmed floats, plain ints/strings."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_counters(namespace: str, fields: Mapping[str, Any],
                    empty: str = "no data") -> str:
    """One-line ``namespace: k=v, k=v`` summary (nested dicts flatten)."""
    flat: Dict[str, Any] = {}

    def _flatten(prefix: str, mapping: Mapping[str, Any]) -> None:
        for key, value in mapping.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, Mapping):
                _flatten(name, value)
            else:
                flat[name] = value

    _flatten("", fields)
    if not flat:
        return f"{namespace}: {empty}"
    return f"{namespace}: " + ", ".join(
        f"{name}={format_value(value)}" for name, value in flat.items()
    )


def render_histogram(name: str, snapshot: Mapping[str, Any]) -> str:
    """One-line latency histogram summary (seconds → milliseconds)."""
    return (
        f"{name}: n={snapshot['count']} "
        f"mean={snapshot['mean'] * 1000:.3f}ms "
        f"p50={snapshot['p50'] * 1000:.3f}ms "
        f"p95={snapshot['p95'] * 1000:.3f}ms "
        f"max={snapshot['max'] * 1000:.3f}ms"
    )


def render_registry(snapshot: Mapping[str, Any]) -> str:
    """Multi-line dump of a :meth:`MetricsRegistry.snapshot` document."""
    lines: List[str] = []
    if snapshot.get("counters"):
        lines.append(render_counters("counters", snapshot["counters"]))
    if snapshot.get("gauges"):
        lines.append(render_counters("gauges", snapshot["gauges"]))
    for name, hist in (snapshot.get("histograms") or {}).items():
        lines.append("  " + render_histogram(name, hist))
    return "\n".join(lines) if lines else "metrics: no data"

