"""Aggregation functions for Part-Wise Aggregation.

Definition 1.1 requires ``f`` to be commutative and associative over
O(log n)-bit values.  An :class:`Aggregation` bundles the combine function
with an explicit identity (``None`` is reserved by the PA machinery for
"no value yet" and is never passed to ``combine``).

The stock aggregations cover every use in the paper: MIN/MAX (leader
election, minimum outgoing edge), SUM/COUNT (part sizes, block counts,
cut weights), OR/AND (predicate verification), XOR (sketches), and
MIN_TUPLE / MAX_TUPLE for lexicographic tuple values such as
``(weight, uid_u, uid_v)`` in Boruvka's algorithm, and SUM_TUPLE for
componentwise tuple sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Aggregation:
    """A commutative, associative combine over O(log n)-bit values."""

    name: str
    combine: Callable[[Any, Any], Any]
    #: Component aggregations when this is a componentwise product over
    #: k-tuples (:func:`repro.core.pa.product_aggregation`); empty for an
    #: ordinary aggregation.
    factors: Tuple["Aggregation", ...] = ()

    def fold(self, values) -> Any:
        """Combine an iterable of values; ``None`` entries are skipped.

        Returns ``None`` when no value is present, mirroring how the
        distributed machinery treats parts with no contributing node.
        """
        acc = None
        for value in values:
            if value is None:
                continue
            acc = value if acc is None else self.combine(acc, value)
        return acc

    def merge(self, a: Any, b: Any) -> Any:
        """Combine two possibly-``None`` partial aggregates."""
        if a is None:
            return b
        if b is None:
            return a
        return self.combine(a, b)


MIN = Aggregation("min", min)
MAX = Aggregation("max", max)
SUM = Aggregation("sum", lambda a, b: a + b)
#: Boolean OR/AND normalised to {0, 1} so the combine is commutative over
#: arbitrary truthy values (``a or b`` alone would return whichever operand
#: came first).
OR = Aggregation("or", lambda a, b: 1 if (a or b) else 0)
AND = Aggregation("and", lambda a, b: 1 if (a and b) else 0)
XOR = Aggregation("xor", lambda a, b: a ^ b)

#: Lexicographic minimum over equal-length tuples (e.g. minimum-weight
#: outgoing edge represented as (weight, uid_u, uid_v)).
MIN_TUPLE = Aggregation("min_tuple", min)
MAX_TUPLE = Aggregation("max_tuple", max)
#: Componentwise sum over equal-length int tuples (e.g. the coverage
#: check's (count, flag) pairs).
SUM_TUPLE = Aggregation("sum_tuple", lambda a, b: tuple(map(add, a, b)))


def merge_inboxes(
    received: Dict[int, List[Tuple[int, Any]]], agg: Aggregation, n: int
) -> List[Any]:
    """Per node, the ``agg``-merge of what one cross round brought it.

    ``received`` maps a node to its inbox of ``(sender, (tag, value))``
    pairs; the result lists, for each of the ``n`` nodes, the merge of the
    values (``None`` where nothing arrived) — the input of the
    convergecast or PA solve that carries them on to the leaders.
    """
    values: List[Any] = [None] * n
    for node, inbox in received.items():
        for _sender, payload in inbox:
            values[node] = agg.merge(values[node], payload[1])
    return values


def validate_aggregation(agg: Aggregation, samples) -> None:
    """Spot-check commutativity and associativity on sample values.

    Used by tests and by :func:`repro.core.pa.solve_pa` in paranoid mode to
    catch user-supplied combine functions that are not actually
    commutative/associative (a silent correctness hazard in PA).
    """
    samples = list(samples)
    for a in samples:
        for b in samples:
            ab = agg.combine(a, b)
            ba = agg.combine(b, a)
            if ab != ba:
                raise ValueError(
                    f"{agg.name} is not commutative on ({a!r}, {b!r})"
                )
    for a in samples:
        for b in samples:
            for c in samples:
                left = agg.combine(agg.combine(a, b), c)
                right = agg.combine(a, agg.combine(b, c))
                if left != right:
                    raise ValueError(
                        f"{agg.name} is not associative on ({a!r}, {b!r}, {c!r})"
                    )
