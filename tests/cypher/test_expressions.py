"""Unit tests for expression evaluation (three-valued logic etc.)."""

import pytest

from repro.cypher.expressions import ExpressionEvaluator, contains_aggregate
from repro.cypher.parser import parse_cypher_expression
from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import PropertyGraph
from repro.graph.values import NULL


@pytest.fixture
def evaluator():
    return ExpressionEvaluator(PropertyGraph.empty())


def run(evaluator, text, scope=None, parameters=None):
    if parameters:
        evaluator = ExpressionEvaluator(PropertyGraph.empty(),
                                        parameters=parameters)
    return evaluator.evaluate(parse_cypher_expression(text), scope or {})


class TestLiteralsAndVariables:
    def test_literals(self, evaluator):
        assert run(evaluator, "42") == 42
        assert run(evaluator, "3.5") == 3.5
        assert run(evaluator, "'abc'") == "abc"
        assert run(evaluator, "true") is True
        assert run(evaluator, "null") is NULL

    def test_variable_lookup(self, evaluator):
        assert run(evaluator, "x", {"x": 7}) == 7

    def test_unknown_variable_raises(self, evaluator):
        with pytest.raises(CypherEvaluationError):
            run(evaluator, "nope")

    def test_parameter(self, evaluator):
        assert run(evaluator, "$p", parameters={"p": 5}) == 5

    def test_missing_parameter_raises(self, evaluator):
        with pytest.raises(CypherEvaluationError):
            run(evaluator, "$missing")


class TestArithmetic:
    def test_basics(self, evaluator):
        assert run(evaluator, "1 + 2 * 3") == 7
        assert run(evaluator, "(1 + 2) * 3") == 9
        assert run(evaluator, "7 % 3") == 1
        assert run(evaluator, "2 ^ 10") == 1024.0

    def test_integer_division_truncates_toward_zero(self, evaluator):
        assert run(evaluator, "7 / 2") == 3
        assert run(evaluator, "-7 / 2") == -3

    def test_integer_division_is_exact(self, evaluator):
        # Through a float, 2**62 + 1 would come back as 2**62.
        assert run(evaluator, "4611686018427387905 / 1") == 4611686018427387905
        assert run(evaluator, "-4611686018427387905 / 1") == -4611686018427387905
        assert run(evaluator, "4611686018427387905 / -2") == -2305843009213693952
        assert run(evaluator, "-9007199254740993 / -1") == 9007199254740993
        assert run(evaluator, "-7 / -2") == 3

    def test_float_division(self, evaluator):
        assert run(evaluator, "7.0 / 2") == 3.5

    def test_division_by_zero(self, evaluator):
        with pytest.raises(CypherEvaluationError):
            run(evaluator, "1 / 0")

    def test_modulo_keeps_dividend_sign(self, evaluator):
        assert run(evaluator, "-7 % 3") == -1

    def test_null_propagates(self, evaluator):
        assert run(evaluator, "1 + null") is NULL
        assert run(evaluator, "-x", {"x": NULL}) is NULL

    def test_string_concatenation(self, evaluator):
        assert run(evaluator, "'a' + 'b'") == "ab"

    def test_list_concatenation(self, evaluator):
        assert run(evaluator, "[1] + [2]") == [1, 2]
        assert run(evaluator, "[1] + 2") == [1, 2]

    def test_type_error(self, evaluator):
        with pytest.raises(CypherTypeError):
            run(evaluator, "1 - 'a'")


class TestComparisons:
    def test_simple(self, evaluator):
        assert run(evaluator, "1 < 2") is True
        assert run(evaluator, "2 <= 1") is False
        assert run(evaluator, "1 = 1.0") is True
        assert run(evaluator, "1 <> 2") is True

    def test_chained(self, evaluator):
        assert run(evaluator, "1 < 2 < 3") is True
        assert run(evaluator, "1 < 3 < 2") is False

    def test_null_comparison_unknown(self, evaluator):
        assert run(evaluator, "1 < null") is NULL
        assert run(evaluator, "null = null") is NULL

    def test_incomparable_types_unknown(self, evaluator):
        assert run(evaluator, "1 < 'a'") is NULL


class TestBooleanLogic:
    def test_and_or_not(self, evaluator):
        assert run(evaluator, "true AND false") is False
        assert run(evaluator, "true OR false") is True
        assert run(evaluator, "NOT false") is True
        assert run(evaluator, "true XOR false") is True

    def test_three_valued(self, evaluator):
        assert run(evaluator, "false AND null") is False
        assert run(evaluator, "true AND null") is NULL
        assert run(evaluator, "true OR null") is True
        assert run(evaluator, "false OR null") is NULL
        assert run(evaluator, "NOT null") is NULL

    def test_is_null(self, evaluator):
        assert run(evaluator, "null IS NULL") is True
        assert run(evaluator, "1 IS NULL") is False
        assert run(evaluator, "1 IS NOT NULL") is True


class TestInList:
    def test_membership(self, evaluator):
        assert run(evaluator, "2 IN [1, 2, 3]") is True
        assert run(evaluator, "9 IN [1, 2, 3]") is False

    def test_null_item(self, evaluator):
        assert run(evaluator, "null IN [1, 2]") is NULL
        assert run(evaluator, "null IN []") is False

    def test_null_in_container(self, evaluator):
        assert run(evaluator, "9 IN [1, null]") is NULL
        assert run(evaluator, "1 IN [1, null]") is True

    def test_null_container(self, evaluator):
        assert run(evaluator, "1 IN null") is NULL


class TestStringPredicates:
    def test_all_kinds(self, evaluator):
        assert run(evaluator, "'hello' STARTS WITH 'he'") is True
        assert run(evaluator, "'hello' ENDS WITH 'lo'") is True
        assert run(evaluator, "'hello' CONTAINS 'ell'") is True
        assert run(evaluator, "'hello' =~ 'h.*o'") is True
        assert run(evaluator, "'hello' =~ 'h'") is False  # full match

    def test_null(self, evaluator):
        assert run(evaluator, "null STARTS WITH 'x'") is NULL


class TestContainers:
    def test_index(self, evaluator):
        assert run(evaluator, "[10, 20][1]") == 20
        assert run(evaluator, "[10, 20][-1]") == 20
        assert run(evaluator, "[10][5]") is NULL
        assert run(evaluator, "{a: 1}['a']") == 1
        assert run(evaluator, "{a: 1}['b']") is NULL

    def test_slice(self, evaluator):
        assert run(evaluator, "[1,2,3,4][1..3]") == [2, 3]
        assert run(evaluator, "[1,2,3][..2]") == [1, 2]
        assert run(evaluator, "[1,2,3][1..]") == [2, 3]

    def test_list_comprehension(self, evaluator):
        assert run(evaluator, "[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]") == [
            20, 40,
        ]
        assert run(evaluator, "[x IN [1,2] | x]") == [1, 2]
        assert run(evaluator, "[x IN [1,2,3] WHERE x > 1]") == [2, 3]

    def test_list_comprehension_null_source(self, evaluator):
        assert run(evaluator, "[x IN null | x]") is NULL


class TestQuantifiers:
    def test_all(self, evaluator):
        assert run(evaluator, "ALL(x IN [1,2] WHERE x > 0)") is True
        assert run(evaluator, "ALL(x IN [1,-2] WHERE x > 0)") is False
        assert run(evaluator, "ALL(x IN [] WHERE x > 0)") is True

    def test_all_with_unknown(self, evaluator):
        assert run(evaluator, "ALL(x IN [1, null] WHERE x > 0)") is NULL
        assert run(evaluator, "ALL(x IN [-1, null] WHERE x > 0)") is False

    def test_any(self, evaluator):
        assert run(evaluator, "ANY(x IN [0, 5] WHERE x > 1)") is True
        assert run(evaluator, "ANY(x IN [0, 1] WHERE x > 1)") is False
        assert run(evaluator, "ANY(x IN [0, null] WHERE x > 1)") is NULL

    def test_none(self, evaluator):
        assert run(evaluator, "NONE(x IN [0, 1] WHERE x > 1)") is True
        assert run(evaluator, "NONE(x IN [0, 5] WHERE x > 1)") is False

    def test_single(self, evaluator):
        assert run(evaluator, "SINGLE(x IN [0, 5] WHERE x > 1)") is True
        assert run(evaluator, "SINGLE(x IN [2, 5] WHERE x > 1)") is False
        assert run(evaluator, "SINGLE(x IN [0, 1] WHERE x > 1)") is False


class TestCase:
    def test_searched(self, evaluator):
        assert run(evaluator, "CASE WHEN 1 > 0 THEN 'a' ELSE 'b' END") == "a"
        assert run(evaluator, "CASE WHEN 1 < 0 THEN 'a' ELSE 'b' END") == "b"
        assert run(evaluator, "CASE WHEN 1 < 0 THEN 'a' END") is NULL

    def test_simple(self, evaluator):
        assert run(evaluator, "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END") == "b"
        assert run(evaluator, "CASE 9 WHEN 1 THEN 'a' ELSE 'z' END") == "z"


class TestAggregateDetection:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("count(*)", True),
            ("avg(x) + 1", True),
            ("collect(x.y)", True),
            ("size(collect(x))", True),
            ("x + 1", False),
            ("[y IN xs | y]", False),
            ("[y IN xs | avg(y)]", True),
            ("CASE WHEN count(*) > 1 THEN 1 END", True),
        ],
    )
    def test_contains_aggregate(self, text, expected):
        assert contains_aggregate(parse_cypher_expression(text)) is expected

    def test_aggregate_outside_projection_rejected(self, evaluator):
        with pytest.raises(CypherEvaluationError):
            run(evaluator, "avg(x)", {"x": 1})
        with pytest.raises(CypherEvaluationError):
            run(evaluator, "count(*)")
