"""Payload bit accounting and the O(log n) budget."""

import math

import pytest

from repro.congest import ceil_log2, int_bits, message_bit_limit, payload_bits
from repro.congest.message import TAG_BITS


def test_int_bits_basics():
    assert int_bits(0) == 1
    assert int_bits(1) == 1
    assert int_bits(7) == 3
    assert int_bits(8) == 4
    assert int_bits(-8) == 5  # sign bit


def test_payload_bits_none_and_bool():
    assert payload_bits(None) == 1
    assert payload_bits(True) == 1
    assert payload_bits(False) == 1


def test_payload_bits_tuples_are_summed():
    flat = payload_bits((3, 5))
    assert flat > payload_bits(3)
    nested = payload_bits(((3,), (5,)))
    assert nested > flat  # nesting overhead charged


def test_payload_bits_strings_are_flat_tags():
    # Tags come from a fixed alphabet, so they cost constant bits.
    assert payload_bits("ku") == payload_bits("block_up_long_tag")


def test_payload_bits_tells_equal_values_of_distinct_types_apart():
    # 1 == 1.0 == True, yet their encodings differ: the count goes by
    # type, never by equality.
    assert payload_bits(1) == payload_bits(True) == 1
    assert payload_bits(1.0) == 64
    assert payload_bits("1") == TAG_BITS
    assert payload_bits((1,)) != payload_bits((1.0,))
    assert payload_bits((True, "1")) == payload_bits((1, "tag"))


def test_numpy_scalars_charge_the_wrapped_python_value():
    # The wire format does not care about the sender's register type:
    # np.int64(1), 1 and True all cost 1 bit, at every boundary width.
    import numpy as np

    assert (
        payload_bits(np.int64(1)) == payload_bits(1) == payload_bits(True) == 1
    )
    for value in (0, 1, -1, 2**31, 2**53 - 1, 2**53, 2**60 - 1, -(2**62)):
        assert payload_bits(np.int64(value)) == payload_bits(value)
    assert payload_bits(np.float64(1.5)) == payload_bits(1.5) == 64
    assert payload_bits(np.bool_(True)) == 1
    # Numpy scalars nested inside tuples charge like the plain-int tuple.
    assert payload_bits((np.int64(5), "tag")) == payload_bits((5, "tag"))
    with pytest.raises(TypeError):
        payload_bits(np.arange(3))  # whole arrays are never a message


def test_payload_bits_rejects_unserializable():
    with pytest.raises(TypeError):
        payload_bits({"a": 1})
    with pytest.raises(TypeError):
        payload_bits([1, 2])


def test_payload_bits_rejects_containers_nested_in_tuples():
    # The tuple fast path inlines ints only; any other component goes back
    # through the full check, so a list or dict cannot hide inside a tuple.
    for payload in ([1, 2], {"a": 1}, (1, [2]), ("tag", {"a": 1}), ((1,), [2])):
        with pytest.raises(TypeError):
            payload_bits(payload)


def test_message_bit_limit_grows_with_n():
    assert message_bit_limit(2) < message_bit_limit(1 << 20)
    # A constant number of ids always fits.
    n = 1000
    limit = message_bit_limit(n)
    assert payload_bits(("tag", n - 1, n - 1, n - 1)) <= limit


def test_message_bit_limit_small_n():
    assert message_bit_limit(1) >= 8


def test_ceil_log2_is_the_floating_point_spelling_it_replaced():
    # Eleven call sites wrote max(1, ceil(log2(max(2, n)))) in floats; the
    # helper is the integer form.  They agree wherever a ledger can look.
    def spelled_out(n):
        return max(1, math.ceil(math.log2(max(2, n))))

    assert [ceil_log2(n) for n in (0, 1, 2, 3, 4, 5)] == [1, 1, 1, 2, 2, 3]
    for n in range(1, (1 << 20) + 1):
        assert ceil_log2(n) == spelled_out(n), n
    for k in range(1, 41):
        for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            assert ceil_log2(n) == spelled_out(n), n
