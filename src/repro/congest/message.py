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

from typing import Any, Dict

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


#: Memo for :func:`payload_bits_cached`, keyed by ``repr(payload)``.  The
#: engine sends the same few payload shapes millions of times (tags, tokens,
#: small id tuples); recomputing the recursive bit count per send dominated
#: the hot path before this cache existed.
_BITS_CACHE: Dict[str, int] = {}

#: Cache size bound; on overflow the whole memo is dropped (payload variety
#: this large means the workload is generating unbounded-distinct payloads,
#: for which caching cannot help anyway).
_BITS_CACHE_MAX = 1 << 16

#: Types whose ``repr`` is a faithful type-and-shape fingerprint: it
#: distinguishes ``1`` from ``1.0`` from ``True`` from ``"1"``, which plain
#: equality (and hence a value-keyed dict) would conflate.  Only payloads
#: whose top-level type is one of these take the cached path; everything
#: else falls back to the exact recursive computation.
_CACHEABLE_TYPES = (tuple, int, str, bool, float, type(None))


#: Identity-keyed front cache: ``id(payload) -> (payload, bits)``.  Tokens
#: forwarded hop-by-hop are the *same* tuple object at every hop, so this
#: hits without even building the repr key.  Entries hold a strong
#: reference to the payload, which guarantees the id cannot be recycled
#: while the entry exists; the whole cache is dropped on overflow.
_ID_CACHE: Dict[int, tuple] = {}
_ID_CACHE_MAX = 1 << 15


def payload_bits_cached(payload: Any) -> int:
    """Memoized :func:`payload_bits` (same result, same errors).

    Two layers, both exact:

    1. an identity cache for payload objects the engine has already
       measured (the forwarding-heavy common case);
    2. a memo keyed by ``repr(payload)``: for the supported payload domain
       (None, bool, int, float, str and nested tuples of these) the repr
       round-trips the value *and* its types, so a hit is exact — never a
       merely-equal approximation (it distinguishes ``1`` / ``1.0`` /
       ``True`` / ``"1"``, which plain equality would conflate).

    Unsupported payload types bypass both caches and raise ``TypeError``
    from the exact computation, exactly as :func:`payload_bits` does.
    """
    entry = _ID_CACHE.get(id(payload))
    if entry is not None and entry[0] is payload:
        return entry[1]
    if not isinstance(payload, _CACHEABLE_TYPES):
        return payload_bits(payload)
    key = repr(payload)
    bits = _BITS_CACHE.get(key)
    if bits is None:
        bits = payload_bits(payload)
        if len(_BITS_CACHE) >= _BITS_CACHE_MAX:
            _BITS_CACHE.clear()
        _BITS_CACHE[key] = bits
    if len(_ID_CACHE) >= _ID_CACHE_MAX:
        _ID_CACHE.clear()
    _ID_CACHE[id(payload)] = (payload, bits)
    return bits


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
