"""Message payloads and their bit-size accounting.

The CONGEST model allows each message to carry O(log n) bits.  We make that
budget concrete: a payload is a (possibly nested) tuple of small integers,
strings drawn from a fixed tag alphabet, or ``None``, and
:func:`payload_bits` computes an upper bound on its encoded size.  The
network chooses a limit of ``BITS_PER_WORD_FACTOR * ceil(log2 n)`` bits so
that a constant number of node ids / weights / tags fit in one message —
exactly the license the paper's O(log n)-bit messages give.

Payloads are deliberately plain Python values rather than a Message class:
the engine moves millions of them, and tuples keep that cheap.
"""

from __future__ import annotations

from typing import Any

try:  # numpy is optional for the scalar engine, required by the array one
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None  # type: ignore[assignment]

#: How many "machine words" of ceil(log2 n) bits one message may carry.
#: The model's O(log n) bits hides a constant; 16 words is generous enough
#: for every algorithm in the paper (a message never carries more than a
#: few ids, a weight, a tag and a couple of counters) while still catching
#: accidental "ship the whole set in one message" bugs.
BITS_PER_WORD_FACTOR = 16

#: Flat cost charged for a tag string (tags come from a fixed alphabet of
#: message types, so a constant number of bits suffices to encode one).
TAG_BITS = 8

#: Structural overhead charged per tuple nesting level.
TUPLE_OVERHEAD_BITS = 2


def int_bits(value: int) -> int:
    """Return the number of bits needed to encode ``value`` (with sign)."""
    if value == 0:
        return 1
    magnitude = value if value >= 0 else -value
    sign = 1 if value < 0 else 0
    return magnitude.bit_length() + sign


def payload_bits(payload: Any) -> int:
    """Upper-bound the encoded size of ``payload`` in bits.

    Supported payloads are ``None``, ``bool``, ``int``, ``float`` (charged a
    full word of 64 bits; algorithms in this repo only use floats for
    O(log n)-bit fixed-point quantities), ``str`` tags, and tuples of these.
    Anything else raises ``TypeError`` so that non-serializable state cannot
    masquerade as a network message.

    Numpy scalars are charged as the Python value they wrap: a wire format
    does not care whether the sender's register was an ``np.int64`` or an
    ``int``, so ``np.int64(1)``, ``1`` and ``True`` all cost 1 bit.  Arrays
    (``ndim > 0``) remain unsupported — shipping a whole vector in one
    message is exactly the bug the bit audit exists to catch.
    """
    # The two shapes nearly every payload is made of, by exact type, ahead
    # of the general chain (which gives the same answers for them).
    kind = type(payload)
    if kind is int:
        return (payload.bit_length() or 1) + (payload < 0)
    if kind is tuple:
        total = TUPLE_OVERHEAD_BITS
        for item in payload:
            # ints inline: a call per component is most of the cost
            if type(item) is int:
                total += (item.bit_length() or 1) + (item < 0)
            else:
                total += payload_bits(item)
        return total
    if _np is not None and isinstance(payload, _np.generic):
        payload = payload.item()
    if payload is None:
        return 1
    if payload is True or payload is False:
        return 1
    if isinstance(payload, int):
        return int_bits(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        # Tags come from a fixed per-algorithm alphabet of message types,
        # so a constant number of bits encodes any of them.
        return TAG_BITS
    if isinstance(payload, tuple):
        total = TUPLE_OVERHEAD_BITS
        for item in payload:
            total += payload_bits(item)
        return total
    raise TypeError(
        f"unsupported message payload type: {type(payload).__name__}"
    )


def ceil_log2(n: int) -> int:
    """``max(1, ceil(log2 n))`` in integer arithmetic — the repo's "log n".

    The one spelling of the factor every iteration cap, block budget and
    bit limit is stated in; equal to the floating-point
    ``math.ceil(math.log2(max(2, n)))`` wherever that is exact (pinned by
    ``tests/congest/test_message.py``).
    """
    return max(1, (max(2, n) - 1).bit_length())


def message_bit_limit(n: int) -> int:
    """The per-message bit budget for an n-node network.

    This is the concrete instantiation of the model's O(log n) bits.
    """
    return BITS_PER_WORD_FACTOR * ceil_log2(n)
