"""Cypher value universe and three-valued logic.

The value set 𝒱 of the paper (Section 3.1) contains integers, floats,
strings, booleans, ``null``, lists, and maps.  We represent values with
plain Python objects and represent Cypher ``null`` with Python ``None``.

Cypher follows SQL-style three-valued logic: any comparison involving
``null`` is *unknown*, and ``WHERE`` keeps only rows whose predicate is
*true*.  The :class:`Ternary` enum models the three truth values, and the
``and3``/``or3``/``not3``/``xor3`` helpers implement the connectives.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, Optional

from repro.errors import CypherTypeError

#: Cypher ``null`` is represented by Python ``None`` throughout the library.
NULL = None


class Ternary(enum.Enum):
    """Three-valued (Kleene) truth values used by Cypher predicates."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def of(value: Any) -> "Ternary":
        """Coerce a Cypher value into a truth value.

        ``null`` maps to UNKNOWN; booleans map to themselves; anything else
        is a type error (Cypher does not truth-test arbitrary values).
        """
        if value is NULL:
            return Ternary.UNKNOWN
        if isinstance(value, Ternary):
            return value
        if value is True:
            return Ternary.TRUE
        if value is False:
            return Ternary.FALSE
        raise CypherTypeError(f"expected a boolean or null, got {value!r}")

    def to_value(self) -> Optional[bool]:
        """Convert back to a Cypher value (``True``/``False``/``null``)."""
        if self is Ternary.TRUE:
            return True
        if self is Ternary.FALSE:
            return False
        return NULL

    @property
    def is_true(self) -> bool:
        return self is Ternary.TRUE


def and3(left: Ternary, right: Ternary) -> Ternary:
    if left is Ternary.FALSE or right is Ternary.FALSE:
        return Ternary.FALSE
    if left is Ternary.TRUE and right is Ternary.TRUE:
        return Ternary.TRUE
    return Ternary.UNKNOWN


def or3(left: Ternary, right: Ternary) -> Ternary:
    if left is Ternary.TRUE or right is Ternary.TRUE:
        return Ternary.TRUE
    if left is Ternary.FALSE and right is Ternary.FALSE:
        return Ternary.FALSE
    return Ternary.UNKNOWN


def not3(operand: Ternary) -> Ternary:
    if operand is Ternary.TRUE:
        return Ternary.FALSE
    if operand is Ternary.FALSE:
        return Ternary.TRUE
    return Ternary.UNKNOWN


def xor3(left: Ternary, right: Ternary) -> Ternary:
    if left is Ternary.UNKNOWN or right is Ternary.UNKNOWN:
        return Ternary.UNKNOWN
    if (left is Ternary.TRUE) != (right is Ternary.TRUE):
        return Ternary.TRUE
    return Ternary.FALSE


#: Types two values of which compare natively: the front door of
#: :func:`cypher_equals` and :func:`cypher_compare` (NaN aside).
_NATIVE = frozenset({int, float, str})


def is_numeric(value: Any) -> bool:
    """True for Cypher numbers (int/float but *not* bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cypher_equals(left: Any, right: Any) -> Ternary:
    """Cypher ``=``: null-propagating equality.

    Lists and maps compare element-wise; a ``null`` anywhere inside makes
    the comparison UNKNOWN unless a structural difference already decides
    it (Cypher's actual rules are subtle; we implement the commonly-cited
    openCypher behaviour: equality of containers with nulls is UNKNOWN
    unless lengths/keys differ, which yields FALSE).
    """
    kind = type(left)
    if kind is type(right) and kind in _NATIVE:
        return Ternary.TRUE if left == right else Ternary.FALSE
    if left is NULL or right is NULL:
        return Ternary.UNKNOWN
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return Ternary.TRUE if left == right else Ternary.FALSE
        return Ternary.FALSE
    if is_numeric(left) and is_numeric(right):
        return Ternary.TRUE if left == right else Ternary.FALSE
    if isinstance(left, str) and isinstance(right, str):
        return Ternary.TRUE if left == right else Ternary.FALSE
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return Ternary.FALSE
        result = Ternary.TRUE
        for item_left, item_right in zip(left, right):
            part = cypher_equals(item_left, item_right)
            if part is Ternary.FALSE:
                return Ternary.FALSE
            if part is Ternary.UNKNOWN:
                result = Ternary.UNKNOWN
        return result
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left) != set(right):
            return Ternary.FALSE
        result = Ternary.TRUE
        for key in left:
            part = cypher_equals(left[key], right[key])
            if part is Ternary.FALSE:
                return Ternary.FALSE
            if part is Ternary.UNKNOWN:
                result = Ternary.UNKNOWN
        return result
    # Graph entities (nodes/relationships/paths) compare by identity value.
    if type(left) is type(right):
        return Ternary.TRUE if left == right else Ternary.FALSE
    return Ternary.FALSE


_TYPE_ORDER = {"map": 0, "node": 1, "relationship": 2, "list": 3, "path": 4,
               "string": 5, "boolean": 6, "number": 7}

#: Ordering class by exact type; a graph entity's type joins on first sight.
_ORDER_CLASSES = {bool: "boolean", int: "number", float: "number",
                  str: "string", list: "list", dict: "map"}


def _order_class(value: Any) -> str:
    cls = _ORDER_CLASSES.get(type(value))
    if cls is None:
        # Imported here: graph.model imports this module.
        from repro.graph.model import Node, Path, Relationship

        for types, cls in ((Node, "node"), (Relationship, "relationship"),
                           (Path, "path"), (bool, "boolean"),
                           ((int, float), "number"), (str, "string"),
                           (list, "list"), (dict, "map")):
            if isinstance(value, types):
                _ORDER_CLASSES[type(value)] = cls
                return cls
        raise CypherTypeError(f"unorderable value {value!r}")
    return cls


def cypher_compare(left: Any, right: Any) -> Optional[int]:
    """Ordering comparison used by ``<``/``>``/``<=``/``>=``.

    Returns negative/zero/positive like ``cmp`` or ``None`` when the
    comparison is undefined (null involved, or incomparable types under
    Cypher's comparability rules).
    """
    kind = type(left)
    if kind is type(right) and kind in _NATIVE:
        if left == left and right == right:  # NaN is unordered
            return (left > right) - (left < right)
        return None
    if left is NULL or right is NULL:
        return None
    left_class, right_class = _order_class(left), _order_class(right)
    if left_class != right_class:
        return None
    if left_class == "number":
        if isinstance(left, float) and math.isnan(left):
            return None
        if isinstance(right, float) and math.isnan(right):
            return None
        return (left > right) - (left < right)
    if left_class in ("string", "boolean"):
        return (left > right) - (left < right)
    if left_class == "list":
        for item_left, item_right in zip(left, right):
            part = cypher_compare(item_left, item_right)
            if part is None:
                return None
            if part != 0:
                return part
        return (len(left) > len(right)) - (len(left) < len(right))
    return None


def order_key(value: Any) -> tuple:
    """Total-order sort key for ``ORDER BY``.

    Cypher's ``ORDER BY`` imposes a global order across types, with
    ``null`` ordered last in ascending order.  The exact cross-type order
    is implementation-defined; we use a stable documented one.
    """
    if value is NULL:
        return (2, 0, 0)
    cls = _order_class(value)
    if cls == "number":
        if isinstance(value, float) and math.isnan(value):
            return (1, 0, 0)
        return (0, _TYPE_ORDER[cls], value)  # int/float compare exactly
    if cls in ("string",):
        return (0, _TYPE_ORDER[cls], value)
    if cls == "boolean":
        return (0, _TYPE_ORDER[cls], int(value))
    if cls == "list":
        return (0, _TYPE_ORDER[cls], tuple(order_key(item) for item in value))
    if cls == "map":
        return (0, _TYPE_ORDER[cls],
                tuple(sorted((key, order_key(val)) for key, val in value.items())))
    # Graph entities: order by identifier for stability.
    return (0, _TYPE_ORDER[cls], getattr(value, "id", 0))


def hashable(value: Any) -> Any:
    """Deep-freeze a Cypher value so it can live in sets/dict keys.

    Needed for bag semantics (counting duplicate records) and DISTINCT.
    ``null`` maps to a dedicated sentinel so it groups with itself, which
    matches Cypher's DISTINCT/aggregation treatment of null.
    """
    if value is NULL:
        return ("\x00null",)
    if isinstance(value, list):
        return ("\x00list", tuple(hashable(item) for item in value))
    if isinstance(value, dict):
        return ("\x00map",
                tuple(sorted((key, hashable(val)) for key, val in value.items())))
    if isinstance(value, bool):
        return ("\x00bool", value)
    if is_numeric(value):
        # 1 and 1.0 are the same Cypher value, and Python hashes equal
        # numbers alike; float(value) would merge distinct large integers.
        return ("\x00num", value)
    return value


def values_distinct(values: Iterable[Any]) -> list:
    """Deduplicate preserving first-seen order, using Cypher value equality."""
    seen = set()
    out = []
    for value in values:
        key = hashable(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out
