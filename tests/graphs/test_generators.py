"""Generator structure checks for every workload family."""

import pytest

from repro.graphs import (
    caterpillar,
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
from oracles import (
    balanced_binary_tree,
    complete_graph,
    cycle_graph,
    euler_planar_bound,
    random_tree,
    star_graph,
)


def test_path_structure():
    net = path_graph(6)
    assert net.n == 6 and net.m == 5
    assert net.exact_diameter() == 5


def test_cycle_structure():
    net = cycle_graph(8)
    assert net.m == 8
    assert all(net.degree(v) == 2 for v in range(8))


def test_star_structure():
    net = star_graph(7)
    assert net.degree(0) == 6
    assert net.exact_diameter() == 2


def test_complete_graph():
    net = complete_graph(6)
    assert net.m == 15
    assert net.exact_diameter() == 1


def test_grid_structure():
    rows, cols = 3, 5
    net = grid_2d(rows, cols)
    assert net.n == 15
    assert net.m == rows * (cols - 1) + cols * (rows - 1)
    assert net.has_edge(grid_node(1, 2, cols), grid_node(1, 3, cols))
    assert net.has_edge(grid_node(1, 2, cols), grid_node(2, 2, cols))


def test_grid_with_apex_structure():
    rows, cols = 4, 6
    net = grid_with_apex(rows, cols)
    apex = rows * cols
    assert net.n == apex + 1
    assert net.degree(apex) == cols
    for c in range(cols):
        assert net.has_edge(apex, grid_node(0, c, cols))
    # The apex pins the diameter near rows + 1 regardless of cols.
    assert net.exact_diameter() <= rows + 2


def test_torus_is_4_regular():
    net = torus_2d(4, 5)
    assert all(net.degree(v) == 4 for v in range(net.n))
    assert net.is_connected()


def test_ladder_and_caterpillar():
    lad = ladder(10)
    assert lad.n == 20
    cat = caterpillar(6, 3)
    assert cat.n == 6 + 18
    assert cat.m == cat.n - 1  # a tree
    assert cat.is_connected()


def test_k_tree_properties():
    net = k_tree(30, 3, seed=5)
    assert net.n == 30
    assert net.is_connected()
    # k-trees on > k+1 nodes have at least k*n - k(k+1)/2 edges.
    assert net.m >= 3 * 30 - 6


def test_random_tree_is_tree():
    net = random_tree(40, seed=9)
    assert net.m == 39
    assert net.is_connected()


def test_balanced_binary_tree():
    net = balanced_binary_tree(4)
    assert net.n == 31
    assert net.exact_diameter() == 8


def test_random_connected_is_connected():
    for seed in (1, 2, 3):
        net = random_connected(50, 0.03, seed=seed)
        assert net.is_connected()
        assert net.m >= 49


def test_random_regular_ish_degree():
    net = random_regular_ish(40, 4, seed=3)
    assert net.is_connected()
    avg = 2 * net.m / net.n
    assert 3.0 <= avg <= 5.0


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        torus_2d(2, 5)
    with pytest.raises(ValueError):
        k_tree(3, 3)
    with pytest.raises(ValueError):
        random_connected(5, 1.5)


def test_random_regular_exact_degree_connected_deterministic():
    net = random_regular(60, 4, seed=3)
    assert net.is_connected()
    assert set(net.degrees()) == {4}
    assert net.m == 60 * 4 // 2
    again = random_regular(60, 4, seed=3)
    assert net.edges == again.edges
    other = random_regular(60, 4, seed=4)
    assert net.edges != other.edges


def test_random_regular_odd_degree_needs_even_total():
    net = random_regular(40, 3, seed=9)
    assert set(net.degrees()) == {3}
    with pytest.raises(ValueError):
        random_regular(41, 3)  # odd n * odd degree
    with pytest.raises(ValueError):
        random_regular(10, 2)  # degree < 3
    with pytest.raises(ValueError):
        random_regular(4, 4)   # n <= degree


def test_preferential_attachment_structure():
    net = preferential_attachment(300, 3, seed=7)
    assert net.is_connected()
    # Star seed contributes `attach` edges; every later node adds `attach`.
    assert net.m == 3 + (300 - 4) * 3
    degs = net.degrees()
    assert min(degs) >= 3
    # Heavy tail: some hub well above the attachment constant.
    assert max(degs) > 12
    assert preferential_attachment(300, 3, seed=7).edges == net.edges
    with pytest.raises(ValueError):
        preferential_attachment(3, 3)
    with pytest.raises(ValueError):
        preferential_attachment(10, 0)


def test_series_parallel_structure():
    from repro.graphs import series_parallel

    net = series_parallel(50, seed=3)
    assert net.n == 50
    assert net.m == 2 * 50 - 3  # edge + two edges per attached node
    assert net.is_connected()
    # treewidth exactly 2: the decomposition oracle certifies it
    from repro.families import tree_decomposition

    td = tree_decomposition(net)
    td.validate(net)
    assert td.width == 2
    # deterministic per seed
    again = series_parallel(50, seed=3)
    assert again.edges == net.edges
    assert series_parallel(50, seed=4).edges != net.edges
    with pytest.raises(ValueError):
        series_parallel(1)


def test_random_planar_structure():
    from repro.graphs import random_planar

    net = random_planar(230, seed=5)
    assert net.n == 230
    assert net.is_connected()
    assert euler_planar_bound(net)
    # the grid skeleton is intact and some cells are triangulated,
    # some are holes: strictly between skeleton-only and full triangulation
    skeleton = random_planar(230, seed=5, hole_prob=1.0)
    full = random_planar(230, seed=5, hole_prob=0.0)
    assert skeleton.m < net.m < full.m
    assert euler_planar_bound(full)
    # deterministic per seed
    assert random_planar(230, seed=5).edges == net.edges
    with pytest.raises(ValueError):
        random_planar(3)
    with pytest.raises(ValueError):
        random_planar(100, hole_prob=1.5)
