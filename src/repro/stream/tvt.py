"""Time-annotated and time-varying tables (Definitions 5.6, 5.7).

A *time-annotated table* extends a Cypher table with the reserved fields
``win_start`` and ``win_end`` holding the bounds of the window that
produced it.  A *time-varying table* maps every instant ω to the
time-annotated table valid at ω, subject to the paper's consistency,
chronologicality, and monotonicity constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.errors import TimeVaryingTableError
from repro.graph.table import Record, Table
from repro.graph.temporal import TimeInstant, format_hhmm
from repro.stream.timeline import TimeInterval

#: Reserved field names of Definition 5.6.
WIN_START = "win_start"
WIN_END = "win_end"
RESERVED_FIELDS = frozenset({WIN_START, WIN_END})


@dataclass(frozen=True)
class TimeAnnotatedTable:
    """A table annotated with the producing window τ = [win_start, win_end).

    ``table`` holds the plain records; :meth:`annotated_table` materializes
    the Definition 5.6 form where every record carries ``win_start`` and
    ``win_end`` fields.
    """

    table: Table
    interval: TimeInterval

    @property
    def win_start(self) -> TimeInstant:
        return self.interval.start

    @property
    def win_end(self) -> TimeInstant:
        return self.interval.end

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.table)

    def annotated_table(self) -> Table:
        """Definition 5.6 form: records extended with win_start/win_end."""
        fields = set(self.table.fields) | RESERVED_FIELDS
        records = [
            record.with_field(WIN_START, self.interval.start).with_field(
                WIN_END, self.interval.end
            )
            for record in self.table
        ]
        return Table(records, fields=fields)

    def render(self, columns: Optional[List[str]] = None) -> str:
        """Paper-style rendering with HH:MM window bounds."""
        columns = columns or (sorted(self.table.fields) + [WIN_START, WIN_END])
        rows = Table(
            [
                record.with_field(WIN_START, format_hhmm(self.interval.start))
                .with_field(WIN_END, format_hhmm(self.interval.end))
                for record in self.table
            ],
            fields=set(self.table.fields) | RESERVED_FIELDS,
        )
        return rows.render(columns)

    def bag_equals(self, other: "TimeAnnotatedTable") -> bool:
        return self.interval == other.interval and self.table.bag_equals(other.table)


class TimeVaryingTable:
    """Ψ : Ω → time-annotated tables (Definition 5.7).

    Stored as the (finite) list of time-annotated tables produced so far,
    ordered by window opening bound.  ``at(ω)`` implements the paper's
    constraints: among the stored tables whose interval contains ω, return
    the one with the earliest opening bound (consistency +
    chronologicality); instants between stored intervals map to the empty
    table.
    """

    def __init__(self, entries: Iterable[TimeAnnotatedTable] = ()):
        self._entries: List[TimeAnnotatedTable] = []
        for entry in entries:
            self.append(entry)

    def append(self, entry: TimeAnnotatedTable) -> None:
        """Add the result of one evaluation.

        Monotonicity (Definition 5.7) requires subsequent instants to map
        to subsequent tables, i.e. window openings must not decrease.
        """
        if self._entries and entry.interval.start < self._entries[-1].interval.start:
            raise TimeVaryingTableError(
                "time-varying table entries must have non-decreasing window "
                f"openings; got {entry.interval} after "
                f"{self._entries[-1].interval}"
            )
        self._entries.append(entry)

    def evict_closed_by(self, horizon: TimeInstant) -> None:
        """Forget the leading entries whose interval closed at or before
        ``horizon`` (Ψ is then defined from ``horizon`` on)."""
        drop = 0
        for entry in self._entries:
            if entry.interval.end > horizon:
                break
            drop += 1
        del self._entries[:drop]

    def at(self, instant: TimeInstant) -> Optional[TimeAnnotatedTable]:
        """Ψ(ω): earliest-opening stored table whose interval contains ω."""
        for entry in self._entries:
            if instant in entry.interval:
                return entry
        return None

    @property
    def entries(self) -> List[TimeAnnotatedTable]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TimeAnnotatedTable]:
        return iter(self._entries)

    def check_constraints(self) -> None:
        """Validate Definition 5.7's three constraints over stored entries.

        * consistency — every entry is a well-formed time-annotated table
          (guaranteed by construction; re-checked here),
        * chronologicality — ``at`` resolves overlaps to the earliest
          opening (checked by probing interval boundaries),
        * monotonicity — openings are non-decreasing.
        """
        for previous, current in zip(self._entries, self._entries[1:]):
            if current.interval.start < previous.interval.start:
                raise TimeVaryingTableError(
                    "monotonicity violated: window openings decrease"
                )
        for entry in self._entries:
            if entry.interval.is_empty():
                raise TimeVaryingTableError("empty window interval stored")
            resolved = self.at(entry.interval.start)
            if resolved is None:
                raise TimeVaryingTableError("consistency violated")
            if resolved.interval.start > entry.interval.start:
                raise TimeVaryingTableError(
                    "chronologicality violated: later-opening table returned"
                )
