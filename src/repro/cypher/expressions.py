"""Expression evaluation with Cypher's three-valued logic.

:class:`ExpressionEvaluator` evaluates AST expressions against a *scope*
(a mapping from names to values — a table record, possibly extended with
Seraph's reserved window fields) and a property graph (needed for pattern
predicates and ``startNode``/``endNode``).

Every expression runs as a closure built once by
:func:`compile_expression`.  The operators' value-level semantics — null
propagation, 3-valued comparison chains, indexing — are the module
functions below (:func:`apply_binary`, :func:`apply_unary`,
:func:`compare_chain`, :func:`index_value`, :func:`slice_value`), shared
with the aggregate evaluator, which applies them to already-aggregated
operands.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.cypher import ast
from repro.cypher.functions import AGGREGATE_NAMES, call_function
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
    or3,
    xor3,
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


def apply_binary(op: str, left: Any, right: Any) -> Any:
    """Apply a binary arithmetic/concatenation operator (null in, null
    out)."""
    if left is NULL or right is NULL:
        return NULL
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, list) and isinstance(right, list):
            return left + right
        if isinstance(left, list):
            return left + [right]
        if isinstance(right, list):
            return [left] + right
        _require_numbers(op, left, right)
        return left + right
    _require_numbers(op, left, right)
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise CypherEvaluationError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right)  # Cypher truncates toward zero
        return left / right
    if op == "%":
        if right == 0:
            raise CypherEvaluationError("modulo by zero")
        # Cypher % keeps the dividend's sign (like Java), not Python's.
        result = abs(left) % abs(right)
        result = -result if left < 0 else result
        if isinstance(left, int) and isinstance(right, int):
            return int(result)
        return result
    if op == "^":
        return float(left) ** float(right)
    raise CypherEvaluationError(f"unknown operator {op}")


def _require_numbers(op: str, left: Any, right: Any) -> None:
    if not is_numeric(left) or not is_numeric(right):
        raise CypherTypeError(
            f"operator {op} expects numbers, got {left!r} and {right!r}"
        )


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
    return subject[lower:upper]


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

    # -- public API --------------------------------------------------------------

    def evaluate(self, expression: ast.Expression, scope: Mapping[str, Any]) -> Any:
        return compile_expression(expression, self.compile_cache)(self, scope)

    def truth(self, expression: ast.Expression, scope: Mapping[str, Any]) -> Ternary:
        """Evaluate as a predicate (for WHERE and friends)."""
        return Ternary.of(self.evaluate(expression, scope))

    def call(self, name: str, args: list) -> Any:
        """Apply a (non-aggregate) function to evaluated arguments."""
        if name in ("startnode", "endnode"):
            # Graph-aware functions need endpoint resolution.
            rel = args[0]
            if rel is NULL:
                return NULL
            if not isinstance(rel, Relationship):
                raise CypherTypeError(
                    f"{name}() expects a relationship, got {rel!r}"
                )
            return self.graph.node(rel.src if name == "startnode" else rel.trg)
        return call_function(name, args)

    # -- node kinds without a closure of their own ---------------------------------
    #
    # Rare or structurally complex kinds: :func:`compile_expression`
    # wraps these methods instead of unrolling them.

    def _eval_MapLiteral(self, node: ast.MapLiteral, scope: Mapping[str, Any]) -> Any:
        return {key: self.evaluate(value, scope) for key, value in node.entries}

    def _eval_Index(self, node: ast.Index, scope: Mapping[str, Any]) -> Any:
        return index_value(
            self.evaluate(node.subject, scope), self.evaluate(node.index, scope)
        )

    def _eval_Slice(self, node: ast.Slice, scope: Mapping[str, Any]) -> Any:
        return slice_value(
            self.evaluate(node.subject, scope),
            self.evaluate(node.lower, scope) if node.lower else 0,
            self.evaluate(node.upper, scope) if node.upper else OPEN_END,
        )

    def _eval_Quantifier(self, node: ast.Quantifier, scope: Mapping[str, Any]) -> Any:
        source = self.evaluate(node.source, scope)
        if source is NULL:
            return NULL
        if not isinstance(source, list):
            raise CypherTypeError(f"{node.kind} expects a list, got {source!r}")
        verdicts = []
        for element in source:
            inner = dict(scope)
            inner[node.variable] = element
            verdicts.append(self.truth(node.predicate, inner))
        true_count = sum(1 for verdict in verdicts if verdict is Ternary.TRUE)
        unknown = any(verdict is Ternary.UNKNOWN for verdict in verdicts)
        if node.kind == "ALL":
            if any(verdict is Ternary.FALSE for verdict in verdicts):
                return False
            return NULL if unknown else True
        if node.kind == "ANY":
            if true_count:
                return True
            return NULL if unknown else False
        if node.kind == "NONE":
            if true_count:
                return False
            return NULL if unknown else True
        if node.kind == "SINGLE":
            if true_count > 1:
                return False
            if unknown:
                return NULL
            return true_count == 1
        raise CypherEvaluationError(f"unknown quantifier {node.kind}")

    def _eval_ListComprehension(
        self, node: ast.ListComprehension, scope: Mapping[str, Any]
    ) -> Any:
        source = self.evaluate(node.source, scope)
        if source is NULL:
            return NULL
        if not isinstance(source, list):
            raise CypherTypeError(
                f"list comprehension expects a list, got {source!r}"
            )
        out = []
        for element in source:
            inner = dict(scope)
            inner[node.variable] = element
            if node.predicate is not None:
                if self.truth(node.predicate, inner) is not Ternary.TRUE:
                    continue
            if node.projection is not None:
                out.append(self.evaluate(node.projection, inner))
            else:
                out.append(element)
        return out

    def _eval_CaseExpression(
        self, node: ast.CaseExpression, scope: Mapping[str, Any]
    ) -> Any:
        if node.operand is not None:
            operand = self.evaluate(node.operand, scope)
            for when, then in node.alternatives:
                verdict = cypher_equals(operand, self.evaluate(when, scope))
                if verdict is Ternary.TRUE:
                    return self.evaluate(then, scope)
        else:
            for when, then in node.alternatives:
                if self.truth(when, scope) is Ternary.TRUE:
                    return self.evaluate(then, scope)
        if node.default is not None:
            return self.evaluate(node.default, scope)
        return NULL

    def _eval_FunctionCall(
        self, node: ast.FunctionCall, scope: Mapping[str, Any]
    ) -> Any:
        # Only aggregates get here; plain calls have a closure.
        raise CypherEvaluationError(
            f"aggregate {node.name}() is only allowed in WITH/RETURN items"
        )

    def _eval_CountStar(self, node: ast.CountStar, scope: Mapping[str, Any]) -> Any:
        raise CypherEvaluationError("count(*) is only allowed in WITH/RETURN items")

    def _eval_PatternPredicate(
        self, node: ast.PatternPredicate, scope: Mapping[str, Any]
    ) -> Any:
        if self._pattern_checker is None:
            raise CypherEvaluationError(
                "pattern predicates are not available in this context"
            )
        return self._pattern_checker(node.pattern, scope)


# -- compiled expressions -----------------------------------------------------
#
# An expression is compiled once into a closure ``fn(ev, scope)`` —
# ``ev`` is the ExpressionEvaluator carrying graph/parameters, so one
# compiled tree is reusable across evaluation instants and snapshots.
# Node kinds with rare or complex semantics wrap the evaluator's
# ``_eval_*`` method for that kind.

CompiledExpr = Callable[["ExpressionEvaluator", Mapping[str, Any]], Any]

#: Cache shape: ``id(ast_node) -> (ast_node, compiled_fn)``.  The strong
#: reference to the node keeps the id() key from being recycled.
ExprCache = "dict[int, tuple[ast.Expression, CompiledExpr]]"


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
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda ev, scope: value

    if isinstance(node, ast.Variable):
        name = node.name

        def var_fn(ev, scope, _name=name):
            try:
                return scope[_name]
            except KeyError:
                raise CypherEvaluationError(f"unknown variable {_name}") from None

        return var_fn

    if isinstance(node, ast.Parameter):
        name = node.name

        def param_fn(ev, scope, _name=name):
            if _name not in ev.parameters:
                raise CypherEvaluationError(f"missing parameter ${_name}")
            return ev.parameters[_name]

        return param_fn

    if isinstance(node, ast.PropertyAccess):
        subject_fn = compile_expression(node.subject, cache)
        key = node.key

        def prop_fn(ev, scope):
            subject = subject_fn(ev, scope)
            if subject is NULL:
                return NULL
            if isinstance(subject, (Node, Relationship)):
                return subject.property(key)
            if isinstance(subject, dict):
                return subject.get(key, NULL)
            raise CypherTypeError(
                f"cannot access property {key!r} on {subject!r}"
            )

        return prop_fn

    if isinstance(node, ast.Comparison):
        first_fn = compile_expression(node.first, cache)
        rest = tuple(
            (op, compile_expression(operand, cache)) for op, operand in node.rest
        )
        if len(rest) == 1:
            # The common case, without the chain's generator.
            (op, right_fn), = rest
            return lambda ev, scope: compare(
                op, first_fn(ev, scope), right_fn(ev, scope)
            ).to_value()

        def chain_fn(ev, scope):
            return compare_chain(
                first_fn(ev, scope),
                ((op, operand_fn(ev, scope)) for op, operand_fn in rest),
            )

        return chain_fn

    if isinstance(node, (ast.And, ast.Or, ast.Xor)):
        op3 = {ast.And: and3, ast.Or: or3, ast.Xor: xor3}[type(node)]
        left_fn = compile_expression(node.left, cache)
        right_fn = compile_expression(node.right, cache)

        def logic_fn(ev, scope):
            return op3(
                Ternary.of(left_fn(ev, scope)), Ternary.of(right_fn(ev, scope))
            ).to_value()

        return logic_fn

    if isinstance(node, ast.Not):
        operand_fn = compile_expression(node.operand, cache)
        return lambda ev, scope: not3(Ternary.of(operand_fn(ev, scope))).to_value()

    if isinstance(node, ast.IsNull):
        operand_fn = compile_expression(node.operand, cache)
        negated = node.negated

        def isnull_fn(ev, scope):
            result = operand_fn(ev, scope) is NULL
            return (not result) if negated else result

        return isnull_fn

    if isinstance(node, ast.InList):
        item_fn = compile_expression(node.item, cache)
        container_fn = compile_expression(node.container, cache)

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
        left_fn = compile_expression(node.left, cache)
        right_fn = compile_expression(node.right, cache)
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
        left_fn = compile_expression(node.left, cache)
        right_fn = compile_expression(node.right, cache)
        op = node.op
        return lambda ev, scope: apply_binary(
            op, left_fn(ev, scope), right_fn(ev, scope)
        )

    if isinstance(node, ast.UnaryOp):
        operand_fn = compile_expression(node.operand, cache)
        op = node.op
        return lambda ev, scope: apply_unary(op, operand_fn(ev, scope))

    if isinstance(node, ast.ListLiteral):
        item_fns = tuple(compile_expression(item, cache) for item in node.items)
        return lambda ev, scope: [fn(ev, scope) for fn in item_fns]

    if isinstance(node, ast.FunctionCall) and node.name not in AGGREGATE_NAMES:
        arg_fns = tuple(compile_expression(arg, cache) for arg in node.args)
        name = node.name
        if name in ("startnode", "endnode"):
            return lambda ev, scope: ev.call(
                name, [fn(ev, scope) for fn in arg_fns]
            )
        return lambda ev, scope: call_function(
            name, [fn(ev, scope) for fn in arg_fns]
        )

    # Everything else (maps, indexing, slices, quantifiers, CASE,
    # comprehensions, pattern predicates, aggregates-in-wrong-place
    # errors): the evaluator's method for the kind.
    method = getattr(ExpressionEvaluator, f"_eval_{type(node).__name__}", None)
    if method is None:
        raise CypherEvaluationError(
            f"cannot evaluate expression node {type(node).__name__}"
        )
    return lambda ev, scope: method(ev, node, scope)
