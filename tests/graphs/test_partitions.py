"""Partition machinery: validity, generators, oracles."""

import pytest

from repro.congest import InvalidPartitionError
from repro.graphs import (
    Partition,
    bfs_ball_partition,
    boundary_edges,
    grid_2d,
    partition_from_component_labels,
    path_graph,
    random_connected,
    random_connected_partition,
    row_partition,
    validate_partition,
)
from oracles import singleton_partition, whole_graph_partition


def test_partition_basics():
    part = Partition([0, 0, 1, 1, 2])
    assert part.num_parts == 3
    assert part.members[1] == (2, 3)
    assert part.size_of(0) == 2
    assert len(part) == 3


def test_partition_requires_contiguous_ids():
    with pytest.raises(InvalidPartitionError):
        Partition([0, 2])


def test_validate_connected_parts():
    net = path_graph(4)
    validate_partition(net, Partition([0, 0, 1, 1]))
    with pytest.raises(InvalidPartitionError):
        validate_partition(net, Partition([0, 1, 1, 0]))  # part 0 split


def test_row_partition_is_valid_on_grid():
    rows, cols = 4, 6
    from repro.graphs import grid_with_apex

    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    validate_partition(net, part)
    assert part.num_parts == rows
    assert part.part_of[rows * cols] == 0  # apex joins row 0


def test_bfs_ball_partition_validity():
    net = grid_2d(6, 6)
    part = bfs_ball_partition(net, target_size=6, seed=3)
    validate_partition(net, part)
    assert part.num_parts >= 3


def test_random_connected_partition_exact_count():
    net = random_connected(40, 0.08, seed=2)
    part = random_connected_partition(net, 7, seed=5)
    validate_partition(net, part)
    assert part.num_parts == 7


def test_singleton_and_whole_partitions():
    net = path_graph(5)
    singles = singleton_partition(net)
    assert singles.num_parts == 5
    whole = whole_graph_partition(net)
    assert whole.num_parts == 1
    validate_partition(net, singles)
    validate_partition(net, whole)


def test_partition_from_component_labels_compresses():
    part = partition_from_component_labels([9, 9, 4, 4, 9])
    assert part.num_parts == 2
    assert part.part_of == (0, 0, 1, 1, 0)


def test_boundary_edges():
    net = path_graph(6)
    part = Partition([0, 0, 0, 1, 1, 1])
    assert boundary_edges(net, part) == [(2, 3)]
