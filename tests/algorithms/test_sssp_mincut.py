"""Approximate SSSP (Cor 1.5) and approximate min-cut (Cor 1.4)."""

import pytest

from repro.algorithms import approx_min_cut, approx_sssp
from repro.analysis import cut_weight, dijkstra, stoer_wagner_min_cut
from repro.graphs import (
    grid_2d,
    path_graph,
    random_connected,
    with_distinct_weights,
    with_planted_cut,
    with_random_weights,
)


def test_sssp_never_underestimates(weighted_random):
    run = approx_sssp(weighted_random, source=0, beta=0.25, seed=1)
    exact = dijkstra(weighted_random, 0)
    for v in range(weighted_random.n):
        assert run.output[v] >= exact[v]
    assert run.output[0] == 0


def test_sssp_exact_within_hop_horizon():
    net = with_random_weights(path_graph(20), max_weight=9, seed=2)
    run = approx_sssp(net, source=0, beta=0.2, seed=2)  # horizon 5 hops
    exact = dijkstra(net, 0)
    for v in range(6):  # nodes within 5 hops of the source
        assert run.output[v] == exact[v]


def test_sssp_beta_tradeoff_monotone(weighted_random):
    """Smaller beta -> more rounds/messages and no worse stretch."""
    exact = dijkstra(weighted_random, 0)

    def total_stretch(run):
        return sum(
            run.output[v] / exact[v]
            for v in range(1, weighted_random.n)
            if exact[v]
        )

    coarse = approx_sssp(weighted_random, 0, beta=0.5, seed=3)
    fine = approx_sssp(weighted_random, 0, beta=0.05, seed=3)
    assert total_stretch(fine) <= total_stretch(coarse) + 1e-9
    bf_coarse = [p for p in coarse.ledger.phases() if p.name == "sssp_bellman_ford"]
    bf_fine = [p for p in fine.ledger.phases() if p.name == "sssp_bellman_ford"]
    assert bf_fine[0].rounds > bf_coarse[0].rounds


def test_sssp_validates_input(weighted_random):
    with pytest.raises(ValueError):
        approx_sssp(path_graph(5), 0)
    with pytest.raises(ValueError):
        approx_sssp(weighted_random, 0, beta=0.0)


def test_sssp_amortized_tree(weighted_random):
    from repro.analysis import kruskal_mst

    tree = kruskal_mst(weighted_random)
    run = approx_sssp(weighted_random, 0, beta=0.2, seed=4, tree_edges=tree)
    assert all(isinstance(d, int) for d in run.output)


@pytest.mark.parametrize("flags", [{}, {"reuse": True, "batch": True}],
                         ids=["bare", "reuse+batch"])
def test_sssp_charges_its_tree_once(flags):
    """The MST approx_sssp builds runs on its session: the BFS tree is in
    the ledger once, under ``tree:``, and never again under ``mst:``."""
    from repro import PASession

    net = with_random_weights(grid_2d(5, 8), max_weight=20, seed=3)
    session = PASession(net, seed=1, **flags)
    run = approx_sssp(net, 0, beta=0.25, seed=1, session=session)
    assert [
        (p.name, p.rounds, p.messages) for p in run.ledger.phases()
        if "tree:" in p.name
    ] == [
        (f"tree:{p.name}", p.rounds, p.messages)
        for p in session.tree_ledger.phases()
    ]
    assert any(p.name.startswith("mst:") for p in run.ledger.phases())
    if not flags:
        # (302, 2491) before a fresh build's last verification became its
        # setup's first solve: phase 5's first MOE solve is one all-reduce.
        assert (run.rounds, run.messages) == (280, 2362)


def test_mincut_finds_planted_cut():
    base = grid_2d(3, 8)
    side = {r * 8 + c for r in range(3) for c in range(4)}
    net = with_planted_cut(base, side, cut_weight_each=1, bulk_weight=300)
    run = approx_min_cut(net, epsilon=0.7, seed=5, max_trees=4)
    value, got_side = run.output
    exact = stoer_wagner_min_cut(net)
    assert value == exact == 3
    # The reported side realizes the reported value.
    realized = cut_weight(net, {v for v in range(net.n) if got_side[v] == 1})
    assert realized == value


def test_mincut_close_to_exact_on_random(weighted_random):
    run = approx_min_cut(weighted_random, epsilon=0.9, seed=6, max_trees=4)
    exact = stoer_wagner_min_cut(weighted_random)
    assert run.output[0] >= exact  # 1-respecting cuts are real cuts
    assert run.output[0] <= 3 * exact  # empirically tight; shape guard


def test_mincut_epsilon_scales_tree_count():
    net = with_random_weights(grid_2d(3, 5), max_weight=20, seed=7)
    loose = approx_min_cut(net, epsilon=1.0, seed=8)
    tight = approx_min_cut(net, epsilon=0.4, seed=8)
    assert tight.meta["trees_packed"] > loose.meta["trees_packed"]


def test_mincut_validates_input(path10):
    with pytest.raises(ValueError):
        approx_min_cut(path10, epsilon=0.5)
    net = with_random_weights(path10, seed=9)
    with pytest.raises(ValueError):
        approx_min_cut(net, epsilon=0)
