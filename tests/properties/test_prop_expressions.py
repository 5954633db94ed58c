"""Compiled expressions against an oracle that is not the code under test.

The compiled closure tree of :func:`repro.cypher.expressions.compile_expression`
(native fast paths for same-type comparisons and for ``AND``/``OR``/``XOR``/
``NOT``, one inner scope per quantifier) is checked on generated values and
expression trees against two evaluators:

* ``oracle`` — written here from the truth tables of Francis et al.'s
  *Formal Semantics of the Language Cypher*: Kleene logic as explicit tables,
  numbers compared as exact rationals (NaN is unordered and equal to
  nothing, a boolean is never a number), containers element-wise, a
  non-boolean in a predicate position a type error.  It shares no code
  with ``repro`` beyond the AST and the error classes.
* ``walk`` — one node at a time through the module's value-level
  functions (``compare``, ``compare_chain``, ``and3``/``or3``/``xor3``/``not3``,
  ``cypher_equals``): the path the closures fall back to, unfused.

All three must give the same value, or raise the same exception type.
Generated values include integers a float cannot hold exactly, NaN, ±inf,
booleans next to ``0``/``1``, ``null`` and nested lists.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import ast
from repro.cypher.expressions import ExpressionEvaluator, compare, compare_chain
from repro.errors import CypherTypeError
from repro.graph.model import PropertyGraph
from repro.graph.values import NULL, Ternary, and3, cypher_equals, not3, or3, xor3

T, F, N = True, False, None
AND = {(T, T): T, (T, F): F, (T, N): N, (F, T): F, (F, F): F, (F, N): F,
       (N, T): N, (N, F): F, (N, N): N}
OR = {(T, T): T, (T, F): T, (T, N): T, (F, T): T, (F, F): F, (F, N): N,
      (N, T): T, (N, F): N, (N, N): N}
XOR = {(T, T): F, (T, F): T, (T, N): N, (F, T): T, (F, F): F, (F, N): N,
       (N, T): N, (N, F): N, (N, N): N}
NOT = {T: F, F: T, N: N}
OPS = ["=", "<>", "<", ">", "<=", ">="]
KINDS = ["ALL", "ANY", "NONE", "SINGLE"]
NAN = float("nan")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([2**53, 2**53 + 1, -(2**63) - 1]),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, float(2**53), NAN, math.inf, -math.inf]),
    st.text(alphabet="ab", max_size=2),
)
values = st.recursive(scalars, lambda items: st.lists(items, max_size=3),
                      max_leaves=6)
lists = st.lists(values, max_size=4)

leaves = st.one_of(
    values.map(ast.Literal),
    st.sampled_from(["a", "b", "x"]).map(ast.Variable),
)


def _compound(children):
    sources = st.one_of(children, st.just(ast.Variable("b")),
                        lists.map(ast.Literal))
    optional = st.none() | children
    return st.one_of(
        st.builds(
            lambda first, rest: ast.Comparison(first, tuple(rest)), children,
            st.lists(st.tuples(st.sampled_from(OPS), children),
                     min_size=1, max_size=2),
        ),
        st.builds(ast.And, children, children),
        st.builds(ast.Or, children, children),
        st.builds(ast.Xor, children, children),
        st.builds(ast.Not, children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.InList, children, sources),
        st.builds(ast.Quantifier, st.sampled_from(KINDS), st.just("x"),
                  sources, children),
        st.builds(ast.ListComprehension, st.just("x"), sources, optional,
                  optional),
    )


expressions = st.recursive(leaves, _compound, max_leaves=12)
scopes = st.fixed_dictionaries({"a": values, "b": lists, "x": values})


# -- the oracle ---------------------------------------------------------------


def _kind(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "string" if isinstance(value, str) else "list"


def _rational(number):
    """Exact position on the extended real line; NaN never gets here."""
    if math.isinf(number):
        return (1 if number > 0 else -1, 0)
    return (0, Fraction(number))


def oracle_equals(left, right):
    kinds = _kind(left), _kind(right)
    if "null" in kinds:
        return N
    if kinds[0] != kinds[1]:
        return F
    if kinds[0] == "number":
        if left != left or right != right:
            return F
        return _rational(left) == _rational(right)
    if kinds[0] == "list":
        if len(left) != len(right):
            return F
        verdict = T
        for pair in zip(left, right):
            verdict = AND[verdict, oracle_equals(*pair)]
        return verdict
    return left == right


def oracle_order(left, right):
    """-1/0/1, or None where Cypher leaves the pair unordered."""
    kinds = _kind(left), _kind(right)
    if "null" in kinds or kinds[0] != kinds[1]:
        return None
    if kinds[0] == "number":
        if left != left or right != right:
            return None
        left, right = _rational(left), _rational(right)
    if kinds[0] == "list":
        for pair in zip(left, right):
            part = oracle_order(*pair)
            if part != 0:
                return part
        left, right = len(left), len(right)
    return (left > right) - (left < right)


def oracle_link(op, left, right):
    if op in ("=", "<>"):
        verdict = oracle_equals(left, right)
        return verdict if op == "=" else NOT[verdict]
    order = oracle_order(left, right)
    if order is None:
        return N
    return {"<": order < 0, ">": order > 0, "<=": order <= 0, ">=": order >= 0}[op]


def truth(value):
    if value is not T and value is not F and value is not N:
        raise CypherTypeError(f"not a boolean: {value!r}")
    return value


def source_list(value):
    if value is not None and not isinstance(value, list):
        raise CypherTypeError(f"not a list: {value!r}")
    return value


def oracle(node, scope):
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.Variable):
        return scope[node.name]
    if isinstance(node, ast.Comparison):
        left, verdict = oracle(node.first, scope), T
        for op, operand in node.rest:
            right = oracle(operand, scope)
            verdict = AND[verdict, oracle_link(op, left, right)]
            if verdict is F:  # a chain stops at its first false link
                return F
            left = right
        return verdict
    if isinstance(node, (ast.And, ast.Or, ast.Xor)):
        table = {ast.And: AND, ast.Or: OR, ast.Xor: XOR}[type(node)]
        left = truth(oracle(node.left, scope))
        return table[left, truth(oracle(node.right, scope))]
    if isinstance(node, ast.Not):
        return NOT[truth(oracle(node.operand, scope))]
    if isinstance(node, ast.IsNull):
        return (oracle(node.operand, scope) is None) != node.negated
    if isinstance(node, ast.InList):
        item = oracle(node.item, scope)
        container = source_list(oracle(node.container, scope))
        if container is None:
            return N
        verdicts = [oracle_equals(item, element) for element in container]
        return T if T in verdicts else N if N in verdicts else F
    source = source_list(oracle(node.source, scope))
    if source is None:
        return N
    verdicts, kept = [], []
    for element in source:
        inner = {**scope, node.variable: element}
        if node.predicate is None:
            verdicts.append(T)
        else:
            verdicts.append(truth(oracle(node.predicate, inner)))
        if verdicts[-1] is T:
            kept.append(element if getattr(node, "projection", None) is None
                        else oracle(node.projection, inner))
    if isinstance(node, ast.ListComprehension):
        return kept
    trues, unknown = verdicts.count(T), N in verdicts
    return {
        "ALL": F if F in verdicts else N if unknown else T,
        "ANY": T if trues else N if unknown else F,
        "NONE": F if trues else N if unknown else T,
        "SINGLE": F if trues > 1 else N if unknown else trues == 1,
    }[node.kind]


# -- the unfused walk ---------------------------------------------------------


def walk(node, scope):
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.Variable):
        return scope[node.name]
    if isinstance(node, ast.IsNull):
        return (walk(node.operand, scope) is NULL) != node.negated
    if isinstance(node, ast.Comparison):
        first = walk(node.first, scope)
        if len(node.rest) == 1:
            (op, operand), = node.rest
            return compare(op, first, walk(operand, scope)).to_value()
        return compare_chain(
            first, ((op, walk(operand, scope)) for op, operand in node.rest)
        )
    if isinstance(node, (ast.And, ast.Or, ast.Xor)):
        op3 = {ast.And: and3, ast.Or: or3, ast.Xor: xor3}[type(node)]
        left = Ternary.of(walk(node.left, scope))
        return op3(left, Ternary.of(walk(node.right, scope))).to_value()
    if isinstance(node, ast.Not):
        return not3(Ternary.of(walk(node.operand, scope))).to_value()
    if isinstance(node, ast.InList):
        item = walk(node.item, scope)
        container = source_list(walk(node.container, scope))
        if container is NULL:
            return NULL
        verdicts = {cypher_equals(item, element) for element in container}
        if Ternary.TRUE in verdicts:
            return True
        return NULL if Ternary.UNKNOWN in verdicts else False
    if isinstance(node, (ast.Quantifier, ast.ListComprehension)):
        source = source_list(walk(node.source, scope))
        if source is NULL:
            return NULL
        verdicts, kept = [], []
        for element in source:
            inner = dict(scope, **{node.variable: element})
            verdict = (Ternary.TRUE if node.predicate is None
                       else Ternary.of(walk(node.predicate, inner)))
            verdicts.append(verdict)
            if verdict is Ternary.TRUE:
                kept.append(element if getattr(node, "projection", None) is None
                            else walk(node.projection, inner))
        if isinstance(node, ast.ListComprehension):
            return kept
        verdict = {"ALL": and3, "ANY": or3, "NONE": or3, "SINGLE": None}[node.kind]
        if verdict is None:
            trues = verdicts.count(Ternary.TRUE)
            if trues > 1:
                return False
            return NULL if Ternary.UNKNOWN in verdicts else trues == 1
        result = Ternary.TRUE if node.kind == "ALL" else Ternary.FALSE
        for each in verdicts:
            result = verdict(result, each)
        return (not3(result) if node.kind == "NONE" else result).to_value()
    raise AssertionError(f"not generated: {node!r}")


# -- the checks ---------------------------------------------------------------


def outcome(evaluate, node, scope):
    try:
        return "value", evaluate(node, scope)
    except CypherTypeError as error:
        return "raises", type(error)


def same(left, right):
    """Strict equality: a boolean is not 1, 1 is not 1.0, NaN is itself."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, float) and math.isnan(left):
        return math.isnan(right)
    return left == right


def compiled(node, scope):
    return ExpressionEvaluator(PropertyGraph.empty()).evaluate(node, scope)


@settings(max_examples=600, deadline=None)
@given(node=expressions, scope=scopes)
def test_compiled_matches_the_formal_semantics(node, scope):
    assert same(outcome(compiled, node, scope), outcome(oracle, node, scope)), (
        node.render()
    )


@settings(max_examples=600, deadline=None)
@given(node=expressions, scope=scopes)
def test_compiled_matches_the_unfused_walk(node, scope):
    assert same(outcome(compiled, node, scope), outcome(walk, node, scope)), (
        node.render()
    )


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(OPS), left=scalars, right=scalars)
def test_every_single_comparison_pair(op, left, right):
    node = ast.Comparison(ast.Variable("a"), ((op, ast.Variable("x")),))
    scope = {"a": left, "b": [], "x": right}
    assert same(compiled(node, scope), oracle(node, scope)), (left, op, right)
