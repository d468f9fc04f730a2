"""Workload graphs, their partitions and their edge weights."""

from .generators import (
    grid_2d,
    grid_node,
    grid_with_apex,
    k_tree,
    ladder,
    path_graph,
    preferential_attachment,
    random_connected,
    random_regular,
    random_regular_ish,
    torus_2d,
)
from .partitions import (
    Partition,
    bfs_ball_partition,
    boundary_edges,
    partition_from_component_labels,
    random_connected_partition,
    row_partition,
    validate_partition,
)
from .weights import (
    with_distinct_weights,
    with_light_edges,
    with_planted_cut,
    with_random_weights,
)

__all__ = [
    "Partition",
    "bfs_ball_partition",
    "boundary_edges",
    "grid_2d",
    "grid_node",
    "grid_with_apex",
    "k_tree",
    "ladder",
    "partition_from_component_labels",
    "path_graph",
    "preferential_attachment",
    "random_connected",
    "random_connected_partition",
    "random_regular",
    "random_regular_ish",
    "row_partition",
    "torus_2d",
    "validate_partition",
    "with_distinct_weights",
    "with_light_edges",
    "with_planted_cut",
    "with_random_weights",
]
