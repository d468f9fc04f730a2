"""Sequential reference oracles and the paper's theoretical envelopes."""

from .properties import (
    cut_weight,
    induces_connected_subgraph,
    is_dominating_set,
    is_k_dominating_set,
)
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
    "cut_weight",
    "dijkstra",
    "greedy_dominating_set_size",
    "induces_connected_subgraph",
    "is_dominating_set",
    "is_k_dominating_set",
    "kruskal_mst",
    "mst_weight",
    "stoer_wagner_min_cut",
]
