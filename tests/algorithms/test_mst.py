"""MST via PA (Corollary 1.3) against the Kruskal oracle."""

import pytest

from repro.algorithms import RANK, STAR, minimum_spanning_tree
from repro.analysis import kruskal_mst, mst_weight
from repro.core import DETERMINISTIC, RANDOMIZED
from repro.graphs import (
    grid_2d,
    grid_with_apex,
    path_graph,
    random_connected,
    with_distinct_weights,
    with_random_weights,
)


def test_mst_matches_kruskal_on_random_graph(weighted_random):
    result = minimum_spanning_tree(weighted_random, seed=1)
    assert set(result.output) == kruskal_mst(weighted_random)


def test_mst_matches_kruskal_on_grid():
    net = with_distinct_weights(grid_2d(4, 7), seed=3)
    result = minimum_spanning_tree(net, seed=2)
    assert set(result.output) == kruskal_mst(net)


def test_mst_with_duplicate_weights_has_optimal_weight():
    net = with_random_weights(random_connected(30, 0.1, seed=4), max_weight=5, seed=5)
    result = minimum_spanning_tree(net, seed=3)
    assert len(result.output) == net.n - 1
    # With ties the edge set may differ, but the weight cannot.
    assert mst_weight(net, set(result.output)) == mst_weight(net, kruskal_mst(net))


def test_mst_star_merging_deterministic_mode():
    net = with_distinct_weights(random_connected(24, 0.12, seed=6), seed=7)
    result = minimum_spanning_tree(net, mode=DETERMINISTIC, merging=STAR, seed=4)
    assert set(result.output) == kruskal_mst(net)


def test_mst_coin_vs_star_same_tree(weighted_random):
    # (the id predates joining by rank: the randomized rule was coins)
    rank = minimum_spanning_tree(weighted_random, merging=RANK, seed=5)
    star = minimum_spanning_tree(weighted_random, merging=STAR, seed=5)
    assert set(rank.output) == set(star.output)
    with pytest.raises(ValueError):
        minimum_spanning_tree(weighted_random, merging="coin", seed=5)


def test_mst_on_path_is_all_edges():
    net = with_distinct_weights(path_graph(15), seed=8)
    result = minimum_spanning_tree(net, seed=6)
    assert set(result.output) == set(net.edges)


def test_mst_requires_weights():
    with pytest.raises(ValueError):
        minimum_spanning_tree(path_graph(5))


def test_mst_phase_count_logarithmic(weighted_random):
    result = minimum_spanning_tree(weighted_random, seed=7)
    import math

    # Joining by rank merges at least a third of the fragments a phase in
    # expectation: twice the logarithm is a loose cap, not the loop's own.
    assert result.meta["phases"] <= 2 * math.ceil(math.log2(weighted_random.n))


def test_mst_ledger_phases_include_pa_waves(weighted_random):
    result = minimum_spanning_tree(weighted_random, seed=8)
    names = {p.name for p in result.ledger.phases()}
    assert any("moe_wave" in name for name in names)
    assert any("setup" in name for name in names)
