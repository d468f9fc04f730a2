"""The query vocabulary of the PA service layer.

A tenant asks for one aggregate per part of the service's current
partition: the minimum / maximum / sum of a per-node value vector, or
the top-k values.  Every kind lowers to one :class:`~repro.core.Aggregation`
over one PA wave — min/max/sum are the stock aggregations (picklable by
name, so the sharded backend can serve them), and top-k is a k-tuple
merge built here (in-process only; a batch containing one makes the
sharded backend fall back for that wave, counted as usual).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.aggregation import Aggregation, MAX, MIN, SUM

#: Query kinds the service understands.
KINDS = ("min", "max", "sum", "top_k")

#: Kinds lowering to stock aggregations (shardable by name).
STOCK_KINDS = {"min": MIN, "max": MAX, "sum": SUM}


@dataclass(frozen=True)
class AggregateQuery:
    """One per-part aggregation request over a per-node value vector.

    ``values[v]`` is node v's contribution; the answer is one aggregate
    per part of the partition current *when the query's wave runs* (the
    service flushes pending queries before adopting partition or edge
    updates, so a query never straddles two epochs).  ``k`` only applies
    to ``top_k``.
    """

    kind: str
    values: Tuple[object, ...]
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r} (expected one of {KINDS})"
            )
        if self.kind == "top_k" and self.k < 1:
            raise ValueError(f"top_k needs k >= 1, got {self.k}")

    def aggregation(self) -> Aggregation:
        """The single-wave aggregation this query lowers to."""
        stock = STOCK_KINDS.get(self.kind)
        if stock is not None:
            return stock
        return top_k_aggregation(self.k)

    def wave_values(self) -> Tuple[object, ...]:
        """Per-node values as the wave consumes them.

        Top-k wraps each value as a 1-tuple so the merge operates on
        sorted k-prefixes; other kinds pass through.
        """
        if self.kind == "top_k":
            return tuple(
                (v,) if v is not None else None for v in self.values
            )
        return self.values


def min_query(values: Sequence[object]) -> AggregateQuery:
    """Per-part minimum of ``values``."""
    return AggregateQuery("min", tuple(values))


def sum_query(values: Sequence[object]) -> AggregateQuery:
    """Per-part sum of ``values``."""
    return AggregateQuery("sum", tuple(values))


def top_k_query(values: Sequence[object], k: int) -> AggregateQuery:
    """Per-part descending top-``k`` of ``values`` (answered as a tuple)."""
    return AggregateQuery("top_k", tuple(values), k=k)


def top_k_aggregation(k: int) -> Aggregation:
    """Commutative/associative top-k merge over sorted value tuples.

    Partial aggregates are descending tuples of at most ``k`` values;
    the combine concatenates and re-truncates, which is associative
    because the global top-k of a multiset is the top-k of the union of
    any per-group top-k's.  Values stay O(k log n) bits — the same
    budget the batched k-tuple solves already use.
    """
    if k < 1:
        raise ValueError(f"top_k needs k >= 1, got {k}")

    def combine(a, b):
        return tuple(sorted(a + b, reverse=True)[:k])

    return Aggregation(f"top{k}", combine)
