"""Unit tests for scalar/list functions."""

import pytest

from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.functions import call_function
from repro.cypher.parser import parse_cypher_expression
from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import NULL

ALICE = Node(id=1, labels={"Person"}, properties={"name": "Alice"})
BOB = Node(id=2, labels={"Person", "Admin"}, properties={})
KNOWS = Relationship(id=7, type="KNOWS", src=1, trg=2, properties={"w": 3})
PATH = Path((ALICE, BOB), (KNOWS,))


class TestGraphFunctions:
    def test_labels(self):
        assert call_function("labels", [BOB]) == ["Admin", "Person"]

    def test_labels_type_error(self):
        with pytest.raises(CypherTypeError):
            call_function("labels", [KNOWS])

    def test_type(self):
        assert call_function("type", [KNOWS]) == "KNOWS"

    def test_id(self):
        assert call_function("id", [ALICE]) == 1
        assert call_function("id", [KNOWS]) == 7

    def test_nodes_relationships_length(self):
        assert call_function("nodes", [PATH]) == [ALICE, BOB]
        assert call_function("relationships", [PATH]) == [KNOWS]
        assert call_function("length", [PATH]) == 1

    def test_keys_properties(self):
        assert call_function("keys", [ALICE]) == ["name"]
        assert call_function("properties", [KNOWS]) == {"w": 3}
        assert call_function("keys", [{"b": 1, "a": 2}]) == ["a", "b"]


class TestListFunctions:
    def test_size(self):
        assert call_function("size", [[1, 2, 3]]) == 3
        assert call_function("size", ["abc"]) == 3

    def test_head_last_tail(self):
        assert call_function("head", [[1, 2]]) == 1
        assert call_function("last", [[1, 2]]) == 2
        assert call_function("tail", [[1, 2, 3]]) == [2, 3]
        assert call_function("head", [[]]) is NULL
        assert call_function("last", [[]]) is NULL

    def test_reverse(self):
        assert call_function("reverse", [[1, 2]]) == [2, 1]
        assert call_function("reverse", ["ab"]) == "ba"

    def test_range(self):
        assert call_function("range", [1, 4]) == [1, 2, 3, 4]
        assert call_function("range", [0, 10, 5]) == [0, 5, 10]
        assert call_function("range", [3, 1, -1]) == [3, 2, 1]

    def test_range_zero_step(self):
        with pytest.raises(CypherEvaluationError):
            call_function("range", [1, 2, 0])


class TestConversions:
    def test_to_integer(self):
        assert call_function("tointeger", [3.9]) == 3
        assert call_function("tointeger", ["42"]) == 42
        assert call_function("tointeger", ["4.2"]) == 4
        assert call_function("tointeger", ["abc"]) is NULL
        assert call_function("tointeger", [True]) == 1

    def test_to_float(self):
        assert call_function("tofloat", [3]) == 3.0
        assert call_function("tofloat", ["3.5"]) == 3.5
        assert call_function("tofloat", ["zz"]) is NULL

    def test_to_string(self):
        assert call_function("tostring", [42]) == "42"
        assert call_function("tostring", [True]) == "true"

    def test_to_boolean(self):
        assert call_function("toboolean", ["TRUE"]) is True
        assert call_function("toboolean", ["false"]) is False
        assert call_function("toboolean", ["?"]) is NULL


class TestMathAndStrings:
    def test_numeric_functions(self):
        assert call_function("abs", [-3]) == 3
        assert call_function("sign", [-3]) == -1
        assert call_function("sqrt", [9]) == 3.0
        assert call_function("floor", [3.7]) == 3
        assert call_function("ceil", [3.2]) == 4
        assert call_function("round", [3.5]) == 4.0

    def test_string_functions(self):
        assert call_function("tolower", ["AbC"]) == "abc"
        assert call_function("toupper", ["abc"]) == "ABC"
        assert call_function("trim", ["  x "]) == "x"
        assert call_function("replace", ["aaa", "a", "b"]) == "bbb"
        assert call_function("split", ["a,b", ","]) == ["a", "b"]
        assert call_function("substring", ["hello", 1]) == "ello"
        assert call_function("substring", ["hello", 1, 3]) == "ell"
        assert call_function("left", ["hello", 2]) == "he"
        assert call_function("right", ["hello", 2]) == "lo"


class TestNullHandling:
    def test_null_propagation(self):
        for name in ("labels", "size", "abs", "tolower", "head"):
            assert call_function(name, [NULL]) is NULL

    def test_coalesce(self):
        assert call_function("coalesce", [NULL, NULL, 3, 4]) == 3
        assert call_function("coalesce", [NULL]) is NULL

    def test_exists(self):
        assert call_function("exists", [1]) is True
        assert call_function("exists", [NULL]) is False

    def test_unknown_function(self):
        with pytest.raises(CypherEvaluationError):
            call_function("frobnicate", [1])


#: Calls that raised a raw Python exception before their arguments were
#: checked in one place (the compile-time binding): each is now typed.
ONCE_UNTYPED = [
    ("substring('abc', 'x')", CypherTypeError),  # TypeError
    ("left('abc', 'x')", CypherTypeError),  # TypeError
    ("[1, 2][0..'a']", CypherTypeError),  # TypeError
    ("range(1, 'a')", CypherTypeError),  # TypeError
    ("toLower(3)", CypherTypeError),  # AttributeError
    ("replace(1, 'a', 'b')", CypherTypeError),  # AttributeError
    ("toInteger(1e400)", CypherEvaluationError),  # OverflowError
    ("2 ^ 10000", CypherEvaluationError),  # OverflowError
    ("exp(1000)", CypherEvaluationError),  # OverflowError
    ("sqrt(-1)", CypherEvaluationError),  # ValueError
    ("log(0)", CypherEvaluationError),  # ValueError
    ("(-8) ^ 0.5", CypherEvaluationError),  # a complex number
    ("split('a', '')", CypherEvaluationError),  # ValueError
    ("toLower('a', 'b')", CypherEvaluationError),  # TypeError
    ("startNode()", CypherEvaluationError),  # IndexError
]


@pytest.mark.parametrize("text,error", ONCE_UNTYPED)
def test_no_untyped_exception(text, error):
    evaluator = ExpressionEvaluator(PropertyGraph.empty())
    with pytest.raises(error):
        evaluator.evaluate(parse_cypher_expression(text), {})
