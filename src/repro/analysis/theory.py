"""The paper's Tables 1 and 2 as data (Appendix C).

Benchmarks print the measured shortcut quality and PA round counts next to
these theoretical envelopes; EXPERIMENTS.md records both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class FamilyBounds:
    """One column of Table 1/2: a graph family's known (b, c) and runtimes.

    ``b`` and ``c`` are functions of (n, D, parameter); runtimes follow
    Theorem 1.2: deterministic O~(b(D + c)), randomized O~(bD + c).
    """

    name: str
    block_parameter: Callable[[int, int, int], float]
    congestion: Callable[[int, int, int], float]


def _log(n: int) -> float:
    return max(1.0, math.log2(max(2, n)))


#: Table 1, column by column.  ``param`` is the family parameter (genus g,
#: treewidth t, pathwidth p); unused for general/planar.
TABLE1: Dict[str, FamilyBounds] = {
    "general": FamilyBounds(
        "general",
        block_parameter=lambda n, d, p: 1.0,
        congestion=lambda n, d, p: math.sqrt(n),
    ),
    "planar": FamilyBounds(
        "planar",
        block_parameter=lambda n, d, p: _log(d),
        congestion=lambda n, d, p: d * _log(n),
    ),
    "genus": FamilyBounds(
        "genus",
        block_parameter=lambda n, d, p: math.sqrt(max(1, p)),
        congestion=lambda n, d, p: math.sqrt(max(1, p)) * d * _log(n),
    ),
    "treewidth": FamilyBounds(
        "treewidth",
        block_parameter=lambda n, d, p: max(1, p),
        congestion=lambda n, d, p: max(1, p) * _log(n),
    ),
    "pathwidth": FamilyBounds(
        "pathwidth",
        block_parameter=lambda n, d, p: max(1, p),
        congestion=lambda n, d, p: max(1, p),
    ),
}


#: Table 2: asymptotic runtimes, as printable strings for the reports.
TABLE2_DETERMINISTIC: Dict[str, str] = {
    "general": "O~(D + sqrt n)",
    "planar": "O~(D)",
    "genus": "O~(g D)",
    "treewidth": "O~(t D + t^2)",
    "pathwidth": "O~(p D + p^2)",
    "minor_free": "O~(D^2)",
}

TABLE2_RANDOMIZED: Dict[str, str] = {
    "general": "O~(D + sqrt n)",
    "planar": "O~(D)",
    "genus": "O~(sqrt(g) D)",
    "treewidth": "O~(t D)",
    "pathwidth": "O~(p D)",
    "minor_free": "O~(D^2)",
}

