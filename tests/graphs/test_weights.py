"""Weight assignment helpers."""

from repro.graphs import (
    grid_2d,
    with_distinct_weights,
    with_light_edges,
    with_planted_cut,
    with_random_weights,
)


def test_random_weights_in_range():
    net = with_random_weights(grid_2d(3, 4), max_weight=50, seed=1)
    assert all(1 <= net.weight(u, v) <= 50 for u, v in net.edges)


def test_distinct_weights_are_permutation():
    net = with_distinct_weights(grid_2d(3, 4), seed=2)
    weights = sorted(net.weights.values())
    assert weights == list(range(1, net.m + 1))


def test_light_edges_rank_first_in_the_seeded_order():
    base = grid_2d(3, 4)
    rows = [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    net = with_light_edges(base, rows, seed=2)
    assert sorted(net.weights.values()) == list(range(1, net.m + 1))
    assert {e for e in net.edges if net.weights[e] <= len(rows)} == set(rows)
    drawn = with_distinct_weights(base, seed=2).weights
    for edges in (rows, [e for e in net.edges if e not in set(rows)]):
        assert sorted(edges, key=net.weights.get) == sorted(edges, key=drawn.get)


def test_planted_cut_weights():
    base = grid_2d(2, 6)
    side = {0, 1, 2, 6, 7, 8}
    net = with_planted_cut(base, side, cut_weight_each=1, bulk_weight=500)
    for u, v in net.edges:
        crossing = (u in side) != (v in side)
        if crossing:
            assert net.weight(u, v) == 1
        else:
            assert net.weight(u, v) >= 500
