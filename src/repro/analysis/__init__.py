"""Sequential reference oracles and the paper's theoretical envelopes."""

from .reference import (
    dijkstra,
    greedy_dominating_set_size,
    kruskal_mst,
    mst_weight,
    stoer_wagner_min_cut,
)
from .theory import (
    TABLE1,
    TABLE2_DETERMINISTIC,
    TABLE2_RANDOMIZED,
    FamilyBounds,
)

__all__ = [
    "FamilyBounds",
    "TABLE1",
    "TABLE2_DETERMINISTIC",
    "TABLE2_RANDOMIZED",
    "dijkstra",
    "greedy_dominating_set_size",
    "kruskal_mst",
    "mst_weight",
    "stoer_wagner_min_cut",
]
