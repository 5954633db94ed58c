"""Property-based tests: three-valued logic laws and value algebra."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.values import (
    NULL,
    Ternary,
    and3,
    cypher_compare,
    cypher_equals,
    hashable,
    not3,
    or3,
    order_key,
    xor3,
)

ternaries = st.sampled_from(list(Ternary))

scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)

values = st.recursive(
    scalar_values,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


class TestTernaryLaws:
    @given(a=ternaries, b=ternaries)
    def test_and_commutative(self, a, b):
        assert and3(a, b) is and3(b, a)

    @given(a=ternaries, b=ternaries)
    def test_or_commutative(self, a, b):
        assert or3(a, b) is or3(b, a)

    @given(a=ternaries, b=ternaries, c=ternaries)
    def test_and_associative(self, a, b, c):
        assert and3(and3(a, b), c) is and3(a, and3(b, c))

    @given(a=ternaries, b=ternaries, c=ternaries)
    def test_or_associative(self, a, b, c):
        assert or3(or3(a, b), c) is or3(a, or3(b, c))

    @given(a=ternaries, b=ternaries, c=ternaries)
    def test_distributivity(self, a, b, c):
        assert and3(a, or3(b, c)) is or3(and3(a, b), and3(a, c))

    @given(a=ternaries)
    def test_double_negation(self, a):
        assert not3(not3(a)) is a

    @given(a=ternaries, b=ternaries)
    def test_de_morgan(self, a, b):
        assert not3(and3(a, b)) is or3(not3(a), not3(b))

    @given(a=ternaries, b=ternaries)
    def test_xor_symmetric(self, a, b):
        assert xor3(a, b) is xor3(b, a)

    @given(a=ternaries)
    def test_identity_elements(self, a):
        assert and3(a, Ternary.TRUE) is a
        assert or3(a, Ternary.FALSE) is a


class TestEqualityLaws:
    @given(value=values)
    def test_reflexive_unless_null_inside(self, value):
        verdict = cypher_equals(value, value)
        assert verdict in (Ternary.TRUE, Ternary.UNKNOWN)

    @given(a=values, b=values)
    def test_symmetric(self, a, b):
        assert cypher_equals(a, b) is cypher_equals(b, a)

    @given(a=values)
    def test_null_always_unknown(self, a):
        assert cypher_equals(a, NULL) is Ternary.UNKNOWN

    @given(a=values, b=values)
    @example(a=2**53 + 1, b=2**53)  # one float, two integers
    @example(a=[2**63 + 1], b=[float(2**63)])
    @example(a=10**400, b=10**400 + 1)  # beyond the float range
    def test_equality_consistent_with_hashable(self, a, b):
        # Deep-frozen keys equal ⇒ Cypher equality is not FALSE.
        if hashable(a) == hashable(b):
            assert cypher_equals(a, b) is not Ternary.FALSE


class TestComparisonLaws:
    numbers = st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )

    @given(a=numbers, b=numbers)
    def test_antisymmetric(self, a, b):
        left = cypher_compare(a, b)
        right = cypher_compare(b, a)
        assert (left > 0) == (right < 0)
        assert (left == 0) == (right == 0)

    @given(a=numbers, b=numbers, c=numbers)
    def test_transitive(self, a, b, c):
        if cypher_compare(a, b) <= 0 and cypher_compare(b, c) <= 0:
            assert cypher_compare(a, c) <= 0

    @given(value=values)
    @example(value=[10**400, 2**53 + 1])  # beyond, and not exact in, a float
    def test_order_key_total(self, value):
        # order_key never raises and is self-consistent.
        key = order_key(value)
        assert key == order_key(value)

    @given(items=st.lists(values, max_size=6))
    def test_order_key_sorts_any_mixture(self, items):
        ordered = sorted(items, key=order_key)
        assert len(ordered) == len(items)
        # Nulls gravitate to the end.
        null_positions = [
            index for index, value in enumerate(ordered) if value is NULL
        ]
        if null_positions:
            assert null_positions == list(
                range(len(ordered) - len(null_positions), len(ordered))
            )
