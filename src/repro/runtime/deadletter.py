"""Dead-letter quarantine for inputs the runtime refused to process.

A :class:`DeadLetterQueue` records every quarantined input together with
*why* it was quarantined (human-readable reason + the error class name)
and *when* (a monotonically increasing arrival counter plus the stream
instant when one is known).  Entries keep the original payload object, so
a fixed-up replay is a plain loop over :meth:`DeadLetterQueue.replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class DeadLetterEntry:
    """One quarantined input."""

    payload: Any                      # the offending object, as received
    reason: str                       # human-readable diagnosis
    error: str                        # raising error class name ("" if none)
    stream: Optional[str] = None      # target stream, when known
    instant: Optional[int] = None     # element instant, when decodable
    sequence: int = 0                 # arrival order within the queue

    def to_dict(self) -> dict:
        """JSON-safe rendering (payloads fall back to ``repr``)."""
        return {
            "sequence": self.sequence,
            "reason": self.reason,
            "error": self.error,
            "stream": self.stream,
            "instant": self.instant,
            "payload": _json_safe(self.payload),
        }


def _json_safe(payload: Any) -> Any:
    from repro.graph.io import element_to_dict
    from repro.stream.stream import StreamElement

    if isinstance(payload, StreamElement):
        return element_to_dict(payload)
    try:
        json.dumps(payload)
        return payload
    except (TypeError, ValueError):
        return repr(payload)


class DeadLetterQueue:
    """Replayable quarantine of refused inputs.

    ``capacity`` bounds memory: when full, the oldest entry is dropped
    (the sequence numbers keep counting, so loss is observable).
    Every append counts ``resilience.dead_lettered`` in ``registry`` (a
    private one unless the owner shares its own).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError("dead-letter capacity must be positive")
        self.capacity = capacity
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._entries: List[DeadLetterEntry] = []
        self._next_sequence = 0

    def append(
        self,
        payload: Any,
        reason: str,
        error: Optional[BaseException] = None,
        stream: Optional[str] = None,
        instant: Optional[int] = None,
    ) -> DeadLetterEntry:
        entry = DeadLetterEntry(
            payload=payload,
            reason=reason,
            error=type(error).__name__ if error is not None else "",
            stream=stream,
            instant=instant,
            sequence=self._next_sequence,
        )
        self._next_sequence += 1
        self._entries.append(entry)
        if self.capacity is not None and len(self._entries) > self.capacity:
            del self._entries[0]
        self.registry.inc("resilience.dead_lettered")
        return entry

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetterEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def entries(self) -> List[DeadLetterEntry]:
        return list(self._entries)

    @property
    def total_appended(self) -> int:
        """Lifetime count, including entries evicted by the capacity cap."""
        return self._next_sequence

    def drain(self) -> List[DeadLetterEntry]:
        """Remove and return all entries (e.g. after a successful replay)."""
        entries, self._entries = self._entries, []
        return entries

    def restore(self, entries: List[DeadLetterEntry], total: int) -> None:
        """Reload checkpointed quarantine state (bypasses the counter —
        the restored ledger already accounts for these entries)."""
        self._entries = list(entries)
        self._next_sequence = total

    def replay(
        self, handler: Callable[[DeadLetterEntry], None]
    ) -> List[DeadLetterEntry]:
        """Feed every entry to ``handler``; entries the handler accepts
        (no exception) are removed, failing entries stay quarantined."""
        remaining: List[DeadLetterEntry] = []
        replayed: List[DeadLetterEntry] = []
        for entry in self._entries:
            try:
                handler(entry)
            except Exception:
                remaining.append(entry)
            else:
                replayed.append(entry)
        self._entries = remaining
        return replayed

    def to_jsonl(self) -> str:
        """One JSON object per entry — the quarantine audit log."""
        return "\n".join(
            json.dumps(entry.to_dict(), sort_keys=True)
            for entry in self._entries
        )

    def __repr__(self) -> str:
        return (f"DeadLetterQueue({len(self._entries)} entries, "
                f"{self._next_sequence} lifetime)")
