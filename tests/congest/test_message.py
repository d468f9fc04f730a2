"""Payload bit accounting and the O(log n) budget."""

import math

import pytest

from repro.congest import ceil_log2, int_bits, message_bit_limit, payload_bits


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


def test_payload_bits_rejects_unserializable():
    with pytest.raises(TypeError):
        payload_bits({"a": 1})
    with pytest.raises(TypeError):
        payload_bits([1, 2])


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
