"""Records and tables with bag semantics (Definition 3.2).

A *record* is a partial function from names to values.  A *table* with
fields ``A`` is a **bag** of records whose domain is exactly ``A``.  Bags
support union (additive) and bag difference — the latter is what Seraph's
``ON ENTERING`` report policy is built from.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import SchemaMismatchError
from repro.graph.values import NULL, hashable


class Record(Mapping[str, Any]):
    """An immutable record (named tuple-like partial function).

    Field order is irrelevant for equality, per Definition 3.2.
    """

    __slots__ = ("_fields", "_key")

    def __init__(self, fields: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        data: Dict[str, Any] = dict(fields or {})
        data.update(kwargs)
        object.__setattr__(self, "_fields", data)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _adopt(cls, fields: Dict[str, Any]) -> "Record":
        """A record over ``fields`` itself, which the caller hands over."""
        record = object.__new__(cls)
        object.__setattr__(record, "_fields", fields)
        object.__setattr__(record, "_key", None)
        return record

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self._fields[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    # -- record operations ----------------------------------------------------

    @property
    def domain(self) -> FrozenSet[str]:
        """dom(u): the set of names the record assigns."""
        return frozenset(self._fields)

    def get(self, name: str, default: Any = NULL) -> Any:
        """Field access; absent names yield Cypher ``null`` by default."""
        return self._fields.get(name, default)

    def merged(self, other: "Record") -> "Record":
        """``u · u'``: extend this record with the fields of ``other``.

        Overlapping names must agree (they do in Cypher's semantics since
        ``u'`` only binds names outside ``dom(u)``; we enforce it).
        """
        for name in self._fields.keys() & other._fields.keys():
            if hashable(self._fields[name]) != hashable(other._fields[name]):
                raise SchemaMismatchError(
                    f"conflicting assignment for field {name!r} when merging records"
                )
        combined = dict(self._fields)
        combined.update(other._fields)
        return Record(combined)

    def project(self, names: Iterable[str]) -> "Record":
        """Keep only ``names``; missing names become ``null``."""
        return Record({name: self._fields.get(name, NULL) for name in names})

    def without(self, names: Iterable[str]) -> "Record":
        dropped = set(names)
        return Record({k: v for k, v in self._fields.items() if k not in dropped})

    def with_field(self, name: str, value: Any) -> "Record":
        combined = dict(self._fields)
        combined[name] = value
        return Record(combined)

    def key(self) -> Tuple:
        """A hashable deep-frozen form for bag counting."""
        if self._key is None:
            frozen = tuple(
                sorted((name, hashable(value)) for name, value in self._fields.items())
            )
            object.__setattr__(self, "_key", frozen)
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value!r}" for name, value in self._fields.items())
        return f"({inner})"


#: The empty record ().
EMPTY_RECORD = Record()


class Table:
    """A bag of records sharing one field set (Definition 3.2).

    Internally a list (preserving production order, which ``ORDER BY``
    relies on) plus a counter keyed by deep-frozen record keys for bag
    operations.
    """

    __slots__ = ("_records", "_fields")

    def __init__(
        self,
        records: Iterable[Record] = (),
        fields: Optional[Iterable[str]] = None,
    ):
        self._records: List[Record] = list(records)
        if fields is not None:
            self._fields: FrozenSet[str] = frozenset(fields)
        elif self._records:
            self._fields = self._records[0].domain
        else:
            self._fields = frozenset()
        for record in self._records:
            if record.domain != self._fields:
                raise SchemaMismatchError(
                    f"record domain {sorted(record.domain)} does not match table "
                    f"fields {sorted(self._fields)}"
                )

    @staticmethod
    def unit() -> "Table":
        """T(): the table containing the single empty record — the seed of
        query evaluation per ``output(Q, G) = [[Q]]_G(T())``."""
        return Table([EMPTY_RECORD])

    @staticmethod
    def empty(fields: Iterable[str] = ()) -> "Table":
        return Table([], fields=fields)

    # -- basic accessors ------------------------------------------------------

    @property
    def fields(self) -> FrozenSet[str]:
        return self._fields

    @property
    def records(self) -> Tuple[Record, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def counter(self) -> Counter:
        """Multiplicity of each record (bag view)."""
        return Counter(record.key() for record in self._records)

    # -- bag algebra ------------------------------------------------------------

    def bag_union(self, other: "Table") -> "Table":
        """Additive bag union (UNION ALL)."""
        self._check_compatible(other)
        return Table(
            list(self._records) + list(other._records),
            fields=self._fields or other._fields,
        )

    def bag_difference(self, other: "Table") -> "Table":
        """Bag difference: multiplicities subtract, floored at zero.

        This is the primitive behind ``ON ENTERING`` (Definition of report
        policies): new results = current ∖ previous.
        """
        self._check_compatible(other)
        remaining = other.counter()
        kept: List[Record] = []
        for record in self._records:
            key = record.key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
            else:
                kept.append(record)
        return Table(kept, fields=self._fields)

    def distinct(self) -> "Table":
        seen = set()
        kept = []
        for record in self._records:
            key = record.key()
            if key not in seen:
                seen.add(key)
                kept.append(record)
        return Table(kept, fields=self._fields)

    def project(self, names: Iterable[str]) -> "Table":
        names = list(names)
        return Table([record.project(names) for record in self._records],
                     fields=names)

    def filter(self, predicate: Callable[[Record], bool]) -> "Table":
        return Table(
            [record for record in self._records if predicate(record)],
            fields=self._fields,
        )

    def sorted_by(self, key: Callable[[Record], Any], reverse: bool = False) -> "Table":
        return Table(
            sorted(self._records, key=key, reverse=reverse), fields=self._fields
        )

    def _check_compatible(self, other: "Table") -> None:
        if self._records and other._records and self._fields != other._fields:
            raise SchemaMismatchError(
                f"incompatible table fields {sorted(self._fields)} vs "
                f"{sorted(other._fields)}"
            )

    # -- equality (bag equality: order-insensitive) -------------------------------

    def bag_equals(self, other: "Table") -> bool:
        return self._fields == other._fields and self.counter() == other.counter()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Table) and self.bag_equals(other)

    def __hash__(self) -> int:
        return hash((self._fields, frozenset(self.counter().items())))

    def __repr__(self) -> str:
        return f"Table(fields={sorted(self._fields)}, rows={len(self._records)})"

    # -- rendering ---------------------------------------------------------------

    def render(self, columns: Optional[List[str]] = None) -> str:
        """ASCII rendering in the style of the paper's result tables."""
        columns = columns or sorted(self._fields)
        header = columns
        rows = [[_render_value(record.get(name)) for name in columns]
                for record in self._records]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows
            else len(header[i])
            for i in range(len(columns))
        ]
        line = "+".join("-" * (width + 2) for width in widths)
        out = [
            " | ".join(header[i].ljust(widths[i]) for i in range(len(columns))),
            line,
        ]
        for row in rows:
            out.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
        return "\n".join(out)


def _render_value(value: Any) -> str:
    if value is NULL:
        return "null"
    if isinstance(value, list):
        return "[" + ",".join(_render_value(item) for item in value) + "]"
    return str(value)
