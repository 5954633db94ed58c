"""Scalar and list functions available in expressions.

The registry maps lower-case function names to callables taking
already-evaluated argument values.  Each entry is declared with the kinds
of its arguments and bound once by :func:`_bind`, the one place arguments
are checked, in this order: a ``null`` argument makes the result ``null``
(every function but ``coalesce`` and ``exists``), a wrong argument count is
a :class:`CypherEvaluationError`, an argument of the wrong kind a
:class:`CypherTypeError`.  A result outside the float range or an argument
outside a function's domain (``sqrt(-1)``, ``log(0)``, ``exp(1000)``,
``toInteger(1e400)``, ``split(s, '')``) is a :class:`CypherEvaluationError`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import NULL

#: Argument kinds: the accepted types and how an error names them.  A
#: boolean is never a number, though ``bool`` subclasses ``int``.
ANY = ((object,), "a value")
NUMBER = ((int, float), "a number")
INTEGER = ((int,), "an integer")
STRING = ((str,), "a string")
LIST = ((list,), "a list")
PATH = ((Path,), "a path")
RELATIONSHIP = ((Relationship,), "a relationship")
ENTITY_OR_MAP = ((Node, Relationship, dict), "a node, relationship or map")


def _bind(name: str, fn: Callable, *kinds: tuple, optional: int = 0,
          nulls: bool = True, variadic: bool = False) -> Callable:
    """``fn`` behind the checks of ``name``'s arguments.

    ``optional`` trailing kinds may be left out, ``variadic`` admits any
    number of further arguments, ``nulls=False`` passes ``null`` through.
    """
    low, high = len(kinds) - optional, math.inf if variadic else len(kinds)
    arity = f"{low}" if low == high else f"{low} to {high}"
    checks = tuple(
        (types, int in types and bool not in types, description)
        for types, description in kinds
    )

    def bound(*args: Any) -> Any:
        for value in args if nulls else ():
            if value is NULL:  # not ``in``: that calls each value's __eq__
                return NULL
        if not low <= len(args) <= high:
            raise CypherEvaluationError(
                f"{name}() takes {arity} arguments, got {len(args)}"
            )
        for value, (types, strict, description) in zip(args, checks):
            if not isinstance(value, types) or strict and type(value) is bool:
                raise CypherTypeError(
                    f"{name}() expects {description}, got {value!r}"
                )
        try:
            return fn(*args)
        except (ArithmeticError, ValueError) as error:
            raise CypherEvaluationError(f"{name}(): {error}") from None

    return bound


def _fn_range(start: int, stop: int, step: int = 1) -> List[int]:
    if step == 0:
        raise CypherEvaluationError("range() step must not be zero")
    return list(range(start, stop + (1 if step > 0 else -1), step))


def _fn_to_integer(value: Any) -> Any:
    if isinstance(value, str):
        try:
            return int(float(value)) if "." in value else int(value)
        except ValueError:
            return NULL
    return int(value)


def _fn_to_float(value: Any) -> Any:
    try:
        return float(value)
    except ValueError:
        return NULL


def _fn_to_string(value: Any) -> Any:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fn_to_boolean(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    return {"true": True, "false": False}.get(value.lower(), NULL)


def _properties(value: Any) -> Any:
    return value if isinstance(value, dict) else value.properties


_DECLARED: Dict[str, tuple] = {
    "labels": (lambda node: sorted(node.labels), ((Node,), "a node")),
    "type": (lambda rel: rel.type, RELATIONSHIP),
    "id": (lambda entity: entity.id,
           ((Node, Relationship), "a node or relationship")),
    "nodes": (lambda path: list(path.nodes), PATH),
    "relationships": (lambda path: list(path.relationships), PATH),
    "rels": (lambda path: list(path.relationships), PATH),
    # length() on lists/strings is legacy Cypher; accepted for R4.
    "length": (lambda value: value.length if isinstance(value, Path)
               else len(value), ((Path, list, str), "a path")),
    "size": (len, ((list, str, dict), "a list, string or map")),
    "head": (lambda items: items[0] if items else NULL, LIST),
    "last": (lambda items: items[-1] if items else NULL, LIST),
    "tail": (lambda items: items[1:], LIST),
    "reverse": (lambda items: items[::-1], ((list, str), "a list or string")),
    "keys": (lambda value: sorted(_properties(value)), ENTITY_OR_MAP),
    "properties": (lambda value: dict(_properties(value)), ENTITY_OR_MAP),
    # Endpoint ids; the expression evaluator resolves them to nodes.
    "startnode": (lambda rel: rel.src, RELATIONSHIP),
    "endnode": (lambda rel: rel.trg, RELATIONSHIP),
    "tointeger": (_fn_to_integer,
                  ((bool, int, float, str), "a boolean, number or string")),
    "tofloat": (_fn_to_float, ((int, float, str), "a number or string")),
    "tostring": (_fn_to_string,
                 ((bool, int, float, str), "a boolean, number or string")),
    "toboolean": (_fn_to_boolean, ((bool, str), "a boolean or string")),
    "abs": (abs, NUMBER),
    "sign": (lambda value: (value > 0) - (value < 0), NUMBER),
    "sqrt": (math.sqrt, NUMBER),
    "floor": (math.floor, NUMBER),
    "ceil": (math.ceil, NUMBER),
    "round": (lambda value: float(math.floor(value + 0.5)), NUMBER),
    "exp": (math.exp, NUMBER),
    "log": (math.log, NUMBER),
    "log10": (math.log10, NUMBER),
    "tolower": (str.lower, STRING),
    "toupper": (str.upper, STRING),
    "trim": (str.strip, STRING),
    "ltrim": (str.lstrip, STRING),
    "rtrim": (str.rstrip, STRING),
    "replace": (str.replace, STRING, STRING, STRING),
    "split": (str.split, STRING, STRING),
    "left": (lambda text, count: text[:count], STRING, INTEGER),
    "right": (lambda text, count: text[-count:] if count else "",
              STRING, INTEGER),
}

FUNCTIONS: Dict[str, Callable] = {
    name: _bind(name, *spec) for name, spec in _DECLARED.items()
}
FUNCTIONS.update(
    range=_bind("range", _fn_range, INTEGER, INTEGER, INTEGER, optional=1),
    substring=_bind(
        "substring", lambda text, start, length=None: text[start:]
        if length is None else text[start:start + length],
        STRING, INTEGER, INTEGER, optional=1,
    ),
    coalesce=_bind(
        "coalesce",
        lambda *args: next((arg for arg in args if arg is not NULL), NULL),
        ANY, optional=1, nulls=False, variadic=True,
    ),
    exists=_bind("exists", lambda value: value is not NULL, ANY, nulls=False),
)

#: Aggregate function names — these are *not* in FUNCTIONS; the evaluator
#: routes them through :mod:`repro.cypher.aggregates`.
AGGREGATE_NAMES = frozenset(
    {
        "count", "sum", "avg", "min", "max", "collect",
        "stdev", "stdevp", "percentilecont", "percentiledisc",
    }
)


def call_function(name: str, args: Sequence[Any]) -> Any:
    """Invoke a registered scalar/list function by (lower-case) name."""
    fn = FUNCTIONS.get(name)
    if fn is None:
        raise CypherEvaluationError(f"unknown function {name}()")
    return fn(*args)
