"""Aggregation functions, including property-based checks."""

from hypothesis import given, strategies as st

from repro.core import (
    AND,
    MAX,
    MIN,
    MIN_TUPLE,
    OR,
    SUM,
    XOR,
)


def test_fold_skips_none():
    assert SUM.fold([1, None, 2, None, 3]) == 6
    assert MIN.fold([None, None]) is None


def test_merge_handles_none():
    assert MIN.merge(None, 5) == 5
    assert MIN.merge(5, None) == 5
    assert MIN.merge(3, 5) == 3


def test_min_tuple_is_lexicographic():
    a = (3, 100, 1)
    b = (3, 5, 900)
    assert MIN_TUPLE.combine(a, b) == b


@given(st.sampled_from([MIN, MAX, SUM, OR, AND, XOR]),
       st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_stock_aggregations_commute_and_associate(agg, a, b, c):
    # PA folds in whatever order the waves meet, which is only sound for
    # a commutative, associative combine.
    assert agg.combine(a, b) == agg.combine(b, a)
    assert agg.combine(agg.combine(a, b), c) == agg.combine(a, agg.combine(b, c))


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
def test_fold_sum_matches_builtin(values):
    assert SUM.fold(values) == sum(values)


@given(st.lists(st.integers(), min_size=1))
def test_fold_min_matches_builtin(values):
    assert MIN.fold(values) == min(values)


@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1),
    st.randoms(),
)
def test_xor_fold_order_independent(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert XOR.fold(values) == XOR.fold(shuffled)
