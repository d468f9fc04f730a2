"""k-dominating sets (Cor A.3) and connected dominating sets (Cor A.2)."""

import pytest

from repro.algorithms import connected_dominating_set, k_dominating_set
from repro.analysis import (
    greedy_dominating_set_size,
    induces_connected_subgraph,
    is_dominating_set,
    is_k_dominating_set,
)
from repro.graphs import grid_2d, path_graph, random_connected


@pytest.mark.parametrize("k", [4, 8, 16])
def test_kdom_radius_and_size(k):
    net = grid_2d(5, 12)
    result = k_dominating_set(net, k, seed=1)
    centers = set(result.output)
    assert is_k_dominating_set(net, centers, k)
    assert len(centers) <= max(1, 6 * net.n // k) + 1


def test_kdom_on_path():
    net = path_graph(40)
    result = k_dominating_set(net, 10, seed=2)
    centers = set(result.output)
    assert is_k_dominating_set(net, centers, 10)
    assert len(centers) <= 24  # 6n/k


def test_kdom_k_exceeding_diameter():
    net = grid_2d(4, 4)
    result = k_dominating_set(net, 100, seed=3)
    assert len(result.output) <= 2


def test_kdom_rejects_bad_k(path10):
    with pytest.raises(ValueError):
        k_dominating_set(path10, 0)


def test_kdom_clusters_cover_all_nodes():
    net = random_connected(40, 0.07, seed=4)
    result = k_dominating_set(net, 8, seed=5)
    cluster_of = result.meta["cluster_of"]
    center_of = result.meta["center_of"]
    assert len(set(cluster_of)) == len(result.output)
    for v in range(net.n):
        assert center_of[v] in result.output


def test_cds_is_connected_dominating(small_random):
    result = connected_dominating_set(small_random, seed=6)
    cds = set(result.output)
    assert is_dominating_set(small_random, cds)
    assert induces_connected_subgraph(small_random, cds)


def test_cds_on_grid():
    net = grid_2d(4, 8)
    result = connected_dominating_set(net, seed=7)
    cds = set(result.output)
    assert is_dominating_set(net, cds)
    assert induces_connected_subgraph(net, cds)


def test_cds_size_within_log_factor(small_random):
    """CDS <= 3 * (greedy DS), and greedy DS is O(log n)-approximate."""
    result = connected_dominating_set(small_random, seed=8)
    greedy = greedy_dominating_set_size(small_random)
    assert len(result.output) <= 3 * greedy + 2


def test_cds_single_node():
    from repro.congest import Network

    net = Network([(0, 1)])
    result = connected_dominating_set(net, seed=9)
    assert len(result.output) >= 1
