"""Expression evaluation with Cypher's three-valued logic.

:class:`ExpressionEvaluator` evaluates AST expressions against a *scope*
(a mapping from names to values — a table record, possibly extended with
Seraph's reserved window fields) and a property graph (needed for pattern
predicates and ``startNode``/``endNode``).

Every expression runs as one tree of closures built once by
:func:`compile_expression`.  The operators' value-level semantics — null
propagation, 3-valued comparison chains, indexing — are the module
functions below (:func:`apply_binary`, :func:`apply_unary`,
:func:`compare`, :func:`compare_chain`, :func:`index_value`,
:func:`slice_value`): the closures' fallback for any operand pair their
native fast path does not take, and shared with the aggregate evaluator,
which applies them to already-aggregated operands.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.cypher import ast
from repro.cypher.functions import AGGREGATE_NAMES, FUNCTIONS, call_function
from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import PropertyGraph, Node, Relationship
from repro.graph.values import (
    NULL,
    Ternary,
    and3,
    cypher_compare,
    cypher_equals,
    is_numeric,
    not3,
)


def contains_aggregate(expression: ast.Expression) -> bool:
    """True when the expression tree contains an aggregate call."""
    if isinstance(expression, ast.CountStar):
        return True
    if isinstance(expression, ast.FunctionCall) and (
        expression.name in AGGREGATE_NAMES
    ):
        return True
    return any(contains_aggregate(child) for child in _children(expression))


def expression_variables(
    expression: ast.Expression, local: frozenset = frozenset()
) -> Iterator[str]:
    """Free variable names of an expression (comprehension/quantifier
    binders are local and excluded)."""
    if isinstance(expression, ast.Variable):
        if expression.name not in local:
            yield expression.name
        return
    if isinstance(expression, ast.PatternPredicate):
        # Unbound names inside a pattern predicate are existential.
        pattern = expression.pattern
        yield from property_variables(pattern.nodes + pattern.relationships, local)
        return
    source, inner = None, local
    if isinstance(expression, (ast.ListComprehension, ast.Quantifier)):
        # The binder is local everywhere but in the source.
        source, inner = expression.source, local | {expression.variable}
    for child in _children(expression):
        yield from expression_variables(child, local if child is source else inner)


def property_variables(
    elements: Iterable[Any], local: frozenset = frozenset()
) -> Iterator[str]:
    """Free variable names of the property maps of node and relationship
    patterns."""
    for element in elements:
        for _key, value in element.properties:
            yield from expression_variables(value, local)


def _children(expression: ast.Expression) -> Iterator[ast.Expression]:
    """The direct sub-expressions (a pattern predicate has none)."""
    if isinstance(expression, ast.PropertyAccess):
        yield expression.subject
    elif isinstance(expression, (ast.And, ast.Or, ast.Xor)):
        yield expression.left
        yield expression.right
    elif isinstance(expression, ast.Not):
        yield expression.operand
    elif isinstance(expression, ast.UnaryOp):
        yield expression.operand
    elif isinstance(expression, ast.BinaryOp):
        yield expression.left
        yield expression.right
    elif isinstance(expression, ast.Comparison):
        yield expression.first
        for _op, operand in expression.rest:
            yield operand
    elif isinstance(expression, ast.IsNull):
        yield expression.operand
    elif isinstance(expression, ast.InList):
        yield expression.item
        yield expression.container
    elif isinstance(expression, ast.StringPredicate):
        yield expression.left
        yield expression.right
    elif isinstance(expression, ast.FunctionCall):
        yield from expression.args
    elif isinstance(expression, ast.ListLiteral):
        yield from expression.items
    elif isinstance(expression, ast.MapLiteral):
        for _key, value in expression.entries:
            yield value
    elif isinstance(expression, ast.Index):
        yield expression.subject
        yield expression.index
    elif isinstance(expression, ast.Slice):
        yield expression.subject
        if expression.lower is not None:
            yield expression.lower
        if expression.upper is not None:
            yield expression.upper
    elif isinstance(expression, ast.ListComprehension):
        yield expression.source
        if expression.predicate is not None:
            yield expression.predicate
        if expression.projection is not None:
            yield expression.projection
    elif isinstance(expression, ast.Quantifier):
        yield expression.source
        yield expression.predicate
    elif isinstance(expression, ast.CaseExpression):
        if expression.operand is not None:
            yield expression.operand
        for when, then in expression.alternatives:
            yield when
            yield then
        if expression.default is not None:
            yield expression.default


def _divide(left: Any, right: Any) -> Any:
    if isinstance(left, int) and isinstance(right, int):
        # Cypher truncates toward zero; exactly, not through a float.
        quotient = abs(left) // abs(right)
        return quotient if (left < 0) == (right < 0) else -quotient
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    # Cypher % keeps the dividend's sign (like Java), not Python's.
    result = abs(left) % abs(right)
    return -result if left < 0 else result


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo, "^": math.pow,
}


def apply_binary(op: str, left: Any, right: Any) -> Any:
    """Apply a binary arithmetic/concatenation operator (null in, null
    out).  A division by zero, a result beyond the float range or a
    power without a real result is a :class:`CypherEvaluationError`."""
    if left is NULL or right is NULL:
        return NULL
    if op == "+" and not (is_numeric(left) and is_numeric(right)):
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, list) and isinstance(right, list):
            return left + right
        if isinstance(left, list):
            return left + [right]
        if isinstance(right, list):
            return [left] + right
    if not is_numeric(left) or not is_numeric(right):
        raise CypherTypeError(
            f"operator {op} expects numbers, got {left!r} and {right!r}"
        )
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is None:
        raise CypherEvaluationError(f"unknown operator {op}")
    try:
        return arithmetic(left, right)
    except (ArithmeticError, ValueError) as error:
        raise CypherEvaluationError(
            f"{left!r} {op} {right!r}: {error}"
        ) from None


def apply_unary(op: str, operand: Any) -> Any:
    if operand is NULL:
        return NULL
    if not is_numeric(operand):
        raise CypherTypeError(f"unary {op} expects a number, got {operand!r}")
    return -operand if op == "-" else +operand


def compare(op: str, left: Any, right: Any) -> Ternary:
    if op == "=":
        return cypher_equals(left, right)
    if op == "<>":
        return not3(cypher_equals(left, right))
    ordering = cypher_compare(left, right)
    if ordering is None:
        return Ternary.UNKNOWN
    if op == "<":
        return Ternary.of(ordering < 0)
    if op == ">":
        return Ternary.of(ordering > 0)
    if op == "<=":
        return Ternary.of(ordering <= 0)
    if op == ">=":
        return Ternary.of(ordering >= 0)
    raise CypherEvaluationError(f"unknown comparison operator {op}")


def compare_chain(left: Any, rest: Iterable[Tuple[str, Any]]) -> Any:
    """``left op1 v1 op2 v2 ...`` as the 3-valued conjunction of its
    links; ``rest`` is consumed only up to the first FALSE link."""
    result = Ternary.TRUE
    for op, right in rest:
        result = and3(result, compare(op, left, right))
        if result is Ternary.FALSE:
            return False
        left = right
    return result.to_value()


def index_value(subject: Any, index: Any) -> Any:
    if subject is NULL or index is NULL:
        return NULL
    if isinstance(subject, list):
        if not isinstance(index, int) or isinstance(index, bool):
            raise CypherTypeError(f"list index must be an integer, got {index!r}")
        if -len(subject) <= index < len(subject):
            return subject[index]
        return NULL
    if isinstance(subject, dict):
        return subject.get(index, NULL)
    if isinstance(subject, (Node, Relationship)):
        return subject.property(index)
    raise CypherTypeError(f"cannot index into {subject!r}")


#: An absent slice bound: ``[lower..]`` runs to the end, ``[..upper]``
#: starts at 0.
OPEN_END = sys.maxsize


def slice_value(subject: Any, lower: Any = 0, upper: Any = OPEN_END) -> Any:
    if subject is NULL:
        return NULL
    if not isinstance(subject, list):
        raise CypherTypeError(f"cannot slice {subject!r}")
    if lower is NULL or upper is NULL:
        return NULL
    for bound in (lower, upper):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise CypherTypeError(f"slice bounds must be integers, got {bound!r}")
    return subject[lower:upper]


def is_true(value: Any) -> bool:
    """A predicate's verdict: true keeps a row; false and null drop it;
    anything else is a type error (Cypher truth-tests no other value)."""
    if value is True:
        return True
    if value is False or value is NULL:
        return False
    return _not_boolean(value)


def _not_boolean(value: Any) -> Any:
    raise CypherTypeError(f"expected a boolean or null, got {value!r}")


class ExpressionEvaluator:
    """Evaluates expressions against a scope and a graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Optional[Mapping[str, Any]] = None,
        pattern_checker: Optional[Callable[[ast.PathPattern, Mapping[str, Any]], bool]]
        = None,
        compile_cache: Optional[dict] = None,
    ):
        self.graph = graph
        self.parameters = dict(parameters or {})
        # Injected by the evaluator layer to avoid a circular import with
        # the matcher; checks whether a pattern predicate has any match.
        self._pattern_checker = pattern_checker
        #: Closures by AST node (see :func:`compile_expression`); the
        #: query evaluator shares its per-query cache here.
        self.compile_cache: dict = (
            compile_cache if compile_cache is not None else {}
        )

    def evaluate(self, expression: ast.Expression, scope: Mapping[str, Any]) -> Any:
        return compile_expression(expression, self.compile_cache)(self, scope)

    def call(self, name: str, args: list) -> Any:
        """Apply a (non-aggregate) function to evaluated arguments;
        ``startNode``/``endNode`` resolve their endpoint id in the graph."""
        value = call_function(name, args)
        if name in ("startnode", "endnode") and value is not NULL:
            return self.graph.node(value)
        return value


# -- compiled expressions -----------------------------------------------------
#
# An expression is compiled once into a tree of closures ``fn(ev, scope)``
# — ``ev`` is the ExpressionEvaluator carrying graph/parameters, so one
# compiled tree is reusable across evaluation instants and snapshots.
# Every node kind has its closure: evaluating a row never re-enters
# :func:`compile_expression`.  Predicates work on ``True``/``False``/
# ``None`` directly; a single comparison of two ints, two strings, or two
# non-NaN numbers runs natively, any other pair through :func:`compare`.

CompiledExpr = Callable[["ExpressionEvaluator", Mapping[str, Any]], Any]

#: Cache shape: ``id(ast_node) -> (ast_node, compiled_fn)``.  The strong
#: reference to the node keeps the id() key from being recycled.
ExprCache = "dict[int, tuple[ast.Expression, CompiledExpr]]"

_NATIVE_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}
_REALS = (int, float)


def _and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    return NULL if left is NULL or right is NULL else True


def _or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    return NULL if left is NULL or right is NULL else False


def _xor(left: Any, right: Any) -> Any:
    return NULL if left is NULL or right is NULL else left is not right


#: A quantifier's verdict from its element counts: (true, null, false).
_QUANTIFIERS = {
    "ALL": lambda true, null, false: False if false else NULL if null else True,
    "ANY": lambda true, null, false: True if true else NULL if null else False,
    "NONE": lambda true, null, false: False if true else NULL if null else True,
    "SINGLE": lambda true, null, false:
        False if true > 1 else NULL if null else true == 1,
}


def compile_expression(
    node: ast.Expression,
    cache: Optional[dict] = None,
) -> CompiledExpr:
    """Compile ``node`` into a closure ``fn(evaluator, scope)``.

    With a ``cache`` dict, repeated calls for the same AST node return the
    same closure — callers thread one cache per registered query so each
    WHERE/projection expression is compiled exactly once per query
    lifetime instead of re-walked per row.
    """
    if cache is not None:
        hit = cache.get(id(node))
        if hit is not None and hit[0] is node:
            return hit[1]
    fn = _compile(node, cache)
    if cache is not None:
        cache[id(node)] = (node, fn)
    return fn


def _compile(node: ast.Expression, cache: Optional[dict]) -> CompiledExpr:
    def sub(child: Optional[ast.Expression], absent: Any = NULL) -> CompiledExpr:
        if child is None:
            return lambda ev, scope: absent
        return compile_expression(child, cache)

    if isinstance(node, ast.Literal):
        value = node.value
        return lambda ev, scope: value

    if isinstance(node, ast.Variable):
        name = node.name

        def var_fn(ev, scope):
            try:
                return scope[name]
            except KeyError:
                raise CypherEvaluationError(f"unknown variable {name}") from None

        return var_fn

    if isinstance(node, ast.Parameter):
        name = node.name

        def param_fn(ev, scope):
            if name not in ev.parameters:
                raise CypherEvaluationError(f"missing parameter ${name}")
            return ev.parameters[name]

        return param_fn

    if isinstance(node, ast.PropertyAccess):
        subject_fn = sub(node.subject)
        key = node.key

        def prop_fn(ev, scope):
            subject = subject_fn(ev, scope)
            if isinstance(subject, (Node, Relationship)):
                return subject.properties.get(key)
            if subject is NULL:
                return NULL
            if isinstance(subject, dict):
                return subject.get(key, NULL)
            raise CypherTypeError(
                f"cannot access property {key!r} on {subject!r}"
            )

        return prop_fn

    if isinstance(node, ast.Comparison):
        first_fn = sub(node.first)
        rest = tuple((op, sub(operand)) for op, operand in node.rest)
        if len(rest) == 1 and rest[0][0] in _NATIVE_COMPARE:
            (op, right_fn), = rest
            native = _NATIVE_COMPARE[op]

            def compare_fn(ev, scope):
                left = first_fn(ev, scope)
                right = right_fn(ev, scope)
                kind = type(left)
                if kind is type(right) and (kind is int or kind is str) or (
                    kind in _REALS and type(right) in _REALS
                    and left == left and right == right  # NaN is unordered
                ):
                    return native(left, right)
                return compare(op, left, right).to_value()

            return compare_fn

        def chain_fn(ev, scope):
            return compare_chain(
                first_fn(ev, scope),
                ((op, operand_fn(ev, scope)) for op, operand_fn in rest),
            )

        return chain_fn

    if isinstance(node, (ast.And, ast.Or, ast.Xor)):
        combine = {ast.And: _and, ast.Or: _or, ast.Xor: _xor}[type(node)]
        left_fn = sub(node.left)
        right_fn = sub(node.right)

        def logic_fn(ev, scope):
            # Both operands, left first, each checked before the next runs.
            left = left_fn(ev, scope)
            if left is not NULL and type(left) is not bool:
                _not_boolean(left)
            right = right_fn(ev, scope)
            if right is not NULL and type(right) is not bool:
                _not_boolean(right)
            return combine(left, right)

        return logic_fn

    if isinstance(node, ast.Not):
        operand_fn = sub(node.operand)

        def not_fn(ev, scope):
            value = operand_fn(ev, scope)
            if value is NULL:
                return NULL
            return not value if type(value) is bool else _not_boolean(value)

        return not_fn

    if isinstance(node, ast.IsNull):
        operand_fn = sub(node.operand)
        negated = node.negated
        return lambda ev, scope: (operand_fn(ev, scope) is NULL) != negated

    if isinstance(node, ast.InList):
        item_fn = sub(node.item)
        container_fn = sub(node.container)

        def inlist_fn(ev, scope):
            item = item_fn(ev, scope)
            container = container_fn(ev, scope)
            if container is NULL:
                return NULL
            if not isinstance(container, list):
                raise CypherTypeError(f"IN expects a list, got {container!r}")
            saw_unknown = item is NULL and bool(container)
            for element in container:
                verdict = cypher_equals(item, element)
                if verdict is Ternary.TRUE:
                    return True
                if verdict is Ternary.UNKNOWN:
                    saw_unknown = True
            return NULL if saw_unknown else False

        return inlist_fn

    if isinstance(node, ast.StringPredicate):
        left_fn = sub(node.left)
        right_fn = sub(node.right)
        kind = node.kind
        if (
            kind == "=~"
            and isinstance(node.right, ast.Literal)
            and isinstance(node.right.value, str)
        ):
            # Constant pattern: pay the regex compile once, not per row.
            pattern = re.compile(node.right.value)

            def regex_fn(ev, scope):
                left = left_fn(ev, scope)
                if left is NULL:
                    return NULL
                if not isinstance(left, str):
                    raise CypherTypeError(
                        f"=~ expects strings, got {left!r} and "
                        f"{pattern.pattern!r}"
                    )
                return pattern.fullmatch(left) is not None

            return regex_fn
        checks = {
            "STARTS WITH": lambda l, r: l.startswith(r),
            "ENDS WITH": lambda l, r: l.endswith(r),
            "CONTAINS": lambda l, r: r in l,
            "=~": lambda l, r: re.fullmatch(r, l) is not None,
        }
        check = checks.get(kind)
        if check is None:
            raise CypherEvaluationError(f"unknown string predicate {kind}")

        def strpred_fn(ev, scope):
            left = left_fn(ev, scope)
            right = right_fn(ev, scope)
            if left is NULL or right is NULL:
                return NULL
            if not isinstance(left, str) or not isinstance(right, str):
                raise CypherTypeError(
                    f"{kind} expects strings, got {left!r} and {right!r}"
                )
            return check(left, right)

        return strpred_fn

    if isinstance(node, ast.BinaryOp):
        left_fn = sub(node.left)
        right_fn = sub(node.right)
        op = node.op
        return lambda ev, scope: apply_binary(
            op, left_fn(ev, scope), right_fn(ev, scope)
        )

    if isinstance(node, ast.UnaryOp):
        operand_fn = sub(node.operand)
        op = node.op
        return lambda ev, scope: apply_unary(op, operand_fn(ev, scope))

    if isinstance(node, ast.ListLiteral):
        item_fns = tuple(sub(item) for item in node.items)
        return lambda ev, scope: [fn(ev, scope) for fn in item_fns]

    if isinstance(node, ast.MapLiteral):
        entry_fns = tuple((key, sub(value)) for key, value in node.entries)
        return lambda ev, scope: {key: fn(ev, scope) for key, fn in entry_fns}

    if isinstance(node, ast.Index):
        subject_fn, index_fn = sub(node.subject), sub(node.index)
        return lambda ev, scope: index_value(
            subject_fn(ev, scope), index_fn(ev, scope)
        )

    if isinstance(node, ast.Slice):
        subject_fn = sub(node.subject)
        lower_fn, upper_fn = sub(node.lower, 0), sub(node.upper, OPEN_END)
        return lambda ev, scope: slice_value(
            subject_fn(ev, scope), lower_fn(ev, scope), upper_fn(ev, scope)
        )

    if isinstance(node, (ast.Quantifier, ast.ListComprehension)):
        return _compile_iteration(node, sub)

    if isinstance(node, ast.CaseExpression):
        operand_fn = sub(node.operand) if node.operand is not None else None
        alternatives = tuple((sub(when), sub(then))
                             for when, then in node.alternatives)
        default_fn = sub(node.default)

        def case_fn(ev, scope):
            if operand_fn is not None:
                operand = operand_fn(ev, scope)
                for when_fn, then_fn in alternatives:
                    if cypher_equals(operand, when_fn(ev, scope)) is Ternary.TRUE:
                        return then_fn(ev, scope)
            else:
                for when_fn, then_fn in alternatives:
                    if is_true(when_fn(ev, scope)):
                        return then_fn(ev, scope)
            return default_fn(ev, scope)

        return case_fn

    if isinstance(node, ast.FunctionCall) and node.name not in AGGREGATE_NAMES:
        arg_fns = tuple(sub(arg) for arg in node.args)
        name = node.name
        function = FUNCTIONS.get(name)
        if function is None or name in ("startnode", "endnode"):
            # Unknown functions raise once their arguments are evaluated.
            return lambda ev, scope: ev.call(
                name, [fn(ev, scope) for fn in arg_fns]
            )
        if len(arg_fns) == 1:
            (arg_fn,) = arg_fns
            return lambda ev, scope: function(arg_fn(ev, scope))
        return lambda ev, scope: function(*[fn(ev, scope) for fn in arg_fns])

    if isinstance(node, ast.PatternPredicate):
        pattern = node.pattern

        def pattern_fn(ev, scope):
            if ev._pattern_checker is None:
                raise CypherEvaluationError(
                    "pattern predicates are not available in this context"
                )
            return ev._pattern_checker(pattern, scope)

        return pattern_fn

    if isinstance(node, (ast.FunctionCall, ast.CountStar)):
        what = ("count(*)" if isinstance(node, ast.CountStar)
                else f"aggregate {node.name}()")

        def aggregate_fn(ev, scope):
            raise CypherEvaluationError(
                f"{what} is only allowed in WITH/RETURN items"
            )

        return aggregate_fn

    raise CypherEvaluationError(
        f"cannot evaluate expression node {type(node).__name__}"
    )


def _compile_iteration(
    node: "ast.Quantifier | ast.ListComprehension",
    sub: Callable[..., CompiledExpr],
) -> CompiledExpr:
    """A quantifier or list comprehension: the variable is bound into one
    inner scope per evaluation, rebound per element."""
    source_fn = sub(node.source)
    variable = node.variable
    quantifier = isinstance(node, ast.Quantifier)
    what = node.kind if quantifier else "list comprehension"
    predicate_fn = sub(node.predicate) if node.predicate is not None else None

    def elements(ev, scope):
        source = source_fn(ev, scope)
        if source is not NULL and not isinstance(source, list):
            raise CypherTypeError(f"{what} expects a list, got {source!r}")
        return source

    if quantifier:
        decide = _QUANTIFIERS.get(node.kind)
        if decide is None:
            raise CypherEvaluationError(f"unknown quantifier {node.kind}")

        def quantifier_fn(ev, scope):
            source = elements(ev, scope)
            if source is NULL:
                return NULL
            inner = dict(scope)
            true = null = 0
            # Every element is evaluated before the verdict.
            for element in source:
                inner[variable] = element
                verdict = predicate_fn(ev, inner)
                if verdict is True:
                    true += 1
                elif verdict is NULL:
                    null += 1
                elif verdict is not False:
                    _not_boolean(verdict)
            return decide(true, null, len(source) - true - null)

        return quantifier_fn

    projection_fn = sub(node.projection) if node.projection is not None else None

    def comprehension_fn(ev, scope):
        source = elements(ev, scope)
        if source is NULL:
            return NULL
        inner = dict(scope)
        out = []
        for element in source:
            inner[variable] = element
            if predicate_fn is not None and not is_true(predicate_fn(ev, inner)):
                continue
            out.append(element if projection_fn is None
                       else projection_fn(ev, inner))
        return out

    return comprehension_fn
