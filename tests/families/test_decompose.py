"""Decomposition oracle validity: certificates, widths, planarity sanity."""

import pytest

from repro.families import (
    BFSLayering,
    DecompositionError,
    bfs_layering,
    path_decomposition,
    tree_decomposition,
)
from repro.graphs import (
    caterpillar,
    grid_2d,
    k_tree,
    ladder,
    random_planar,
    series_parallel,
)
from oracles import complete_graph, euler_planar_bound


# ----------------------------------------------------------------------
# Tree decompositions
# ----------------------------------------------------------------------
def test_tree_decomposition_k_tree_exact_width():
    net = k_tree(48, 3, seed=4)
    td = tree_decomposition(net)
    td.validate(net)
    assert td.width == 3  # min-degree elimination is exact on k-trees


def test_tree_decomposition_series_parallel_width_two():
    net = series_parallel(70, seed=5)
    td = tree_decomposition(net)
    td.validate(net)
    assert td.width == 2


def test_tree_decomposition_axioms_explicitly():
    net = k_tree(30, 2, seed=6)
    td = tree_decomposition(net)
    # every edge inside some bag
    for u, v in net.edges:
        assert any(u in bag and v in bag for bag in td.bags)
    # bags containing each node form a connected subtree
    for v in range(net.n):
        ids = {i for i, bag in enumerate(td.bags) if v in bag}
        links = sum(1 for i in ids if td.parent[i] >= 0 and td.parent[i] in ids)
        assert len(ids) - links == 1
    # width matches the biggest bag
    assert td.width == max(len(bag) for bag in td.bags) - 1


def test_tree_decomposition_validate_catches_tampering():
    net = k_tree(20, 2, seed=6)
    td = tree_decomposition(net)
    bags = list(td.bags)
    bags[0] = frozenset()  # drop a bag's contents: some edge loses cover
    from repro.families import TreeDecomposition

    broken = TreeDecomposition(
        bags=tuple(bags), parent=td.parent, width=td.width
    )
    with pytest.raises(DecompositionError):
        broken.validate(net)


# ----------------------------------------------------------------------
# Path decompositions
# ----------------------------------------------------------------------
def test_path_decomposition_ladder():
    net = ladder(25)
    pd = path_decomposition(net)
    pd.validate(net)
    assert pd.width <= 3  # ladder pathwidth is 2; double-BFS stays close
    for u, v in net.edges:
        assert any(u in bag and v in bag for bag in pd.bags)


def test_path_decomposition_caterpillar():
    net = caterpillar(10, 3)
    pd = path_decomposition(net)
    pd.validate(net)
    assert pd.width <= 2  # caterpillar pathwidth is 1


def test_path_decomposition_contiguity():
    net = ladder(12)
    pd = path_decomposition(net)
    for v in range(net.n):
        positions = [i for i, bag in enumerate(pd.bags) if v in bag]
        assert positions == list(range(positions[0], positions[-1] + 1))


def test_path_decomposition_width_guard():
    with pytest.raises(DecompositionError):
        path_decomposition(complete_graph(12), width_guard=4)


def test_path_decomposition_rejects_bad_order():
    net = ladder(5)
    with pytest.raises(DecompositionError):
        path_decomposition(net, order=[0] * net.n)


# ----------------------------------------------------------------------
# BFS layerings
# ----------------------------------------------------------------------
def test_bfs_layering_grid_certificate():
    net = grid_2d(5, 7)
    layering = bfs_layering(net, 0)
    layering.validate(net)
    assert max(layering.layer) == net.eccentricity(0)


def test_bfs_layering_validate_catches_tampering():
    net = grid_2d(4, 4)
    layering = bfs_layering(net, 0)
    layer = list(layering.layer)
    layer[-1] += 5  # an edge now spans more than one layer
    with pytest.raises(DecompositionError):
        BFSLayering(root=0, layer=tuple(layer)).validate(net)


# ----------------------------------------------------------------------
# Planarity sanity (Euler bound)
# ----------------------------------------------------------------------
def test_euler_bound_accepts_planar_workloads():
    assert euler_planar_bound(grid_2d(8, 8))
    assert euler_planar_bound(random_planar(300, seed=9))


def test_euler_bound_rejects_dense_graphs():
    assert not euler_planar_bound(complete_graph(6))
