"""Applications of Part-Wise Aggregation (Corollaries 1.3-1.5, A.1-A.3)."""

from .cds import connected_dominating_set
from .components import cc_labeling, components_partition
from .kdominating import k_dominating_set
from .mincut import approx_min_cut
from .mst import RANK, STAR, minimum_spanning_tree
from .sssp import approx_sssp
from .verification import (
    verify_bipartiteness,
    verify_connectivity,
    verify_cut,
    verify_cycle_containment,
    verify_spanning_tree,
    verify_st_connectivity,
    verify_st_cut,
)

__all__ = [
    "RANK",
    "STAR",
    "approx_min_cut",
    "approx_sssp",
    "cc_labeling",
    "components_partition",
    "connected_dominating_set",
    "k_dominating_set",
    "minimum_spanning_tree",
    "verify_bipartiteness",
    "verify_connectivity",
    "verify_cut",
    "verify_cycle_containment",
    "verify_spanning_tree",
    "verify_st_connectivity",
    "verify_st_cut",
]
