"""Cross-module integration: the paper's headline comparisons, miniature."""

import math

from repro.analysis import TABLE1, kruskal_mst
from repro.algorithms import minimum_spanning_tree
from repro.baselines import block_aggregation_pa, ghs_mst
from repro.core import SUM, PASolver, solve_pa
from repro.graphs import (
    Partition,
    grid_2d,
    grid_with_apex,
    ladder,
    random_connected_partition,
    row_partition,
    torus_2d,
    with_distinct_weights,
)


def test_figure2_message_crossover():
    """E1: ours beats the naive baseline on message count as D grows."""
    cols = 12
    for rows in (10, 14):
        net = grid_with_apex(rows, cols)
        part = row_partition(rows, cols, include_apex=True)
        naive = block_aggregation_pa(
            net, part, [1] * net.n, SUM, root=rows * cols
        )
        ours = solve_pa(net, part, [1] * net.n, SUM, seed=1)
        assert ours.aggregates == naive.output
        wave_msgs = sum(
            p.messages for p in ours.ledger.phases() if p.name.startswith("pa_")
        )
        assert wave_msgs < naive.messages


def test_table1_shapes_on_families():
    """E2 miniature: constructed (b, c) within polylog of Table 1 targets."""
    cases = {
        "planar": grid_2d(5, 16),
        "genus": torus_2d(5, 10),
        "pathwidth": ladder(30),
    }
    for family, net in cases.items():
        part = random_connected_partition(net, max(2, net.n // 16), seed=3)
        solver = PASolver(net, seed=4)
        setup = solver.prepare(part)
        b, c = setup.quality()
        bounds = TABLE1[family]
        d = net.diameter_estimate()
        target_b = bounds.block_parameter(net.n, d, 2)
        target_c = bounds.congestion(net.n, d, 2)
        polylog = math.log2(net.n) ** 2
        assert b <= max(3, target_b * polylog)
        assert c <= max(3, target_c * polylog)


def test_mst_vs_ghs_tradeoff_on_deep_graph():
    """E5 miniature: GHS pays rounds on high-diameter fragments."""
    net = with_distinct_weights(grid_2d(2, 40), seed=5)
    ours = minimum_spanning_tree(net, seed=6)
    ghs = ghs_mst(net, seed=7)
    ref = kruskal_mst(net)
    assert set(ours.output) == ref
    assert set(ghs.output) == ref
    # GHS convergecasts over fragments of diameter ~n; our fragments talk
    # through shortcuts. GHS must therefore pay many more rounds than its
    # own tree depth, while staying message-cheaper.
    assert ghs.messages < ours.messages
    assert ghs.rounds > 2 * net.exact_diameter()


def test_full_pipeline_ledger_breakdown(small_random, small_random_parts):
    res = solve_pa(small_random, small_random_parts, [1] * small_random.n,
                   SUM, seed=8)
    names = {p.name for p in res.ledger.phases()}
    assert any(n.startswith("tree:") for n in names)
    assert any("setup:" in n for n in names)
    # The build verified its shortcut with PA, and that verification was
    # the setup's first solve: the caller's solve is one all-reduce on the
    # route it learned.
    assert any(n.startswith("setup:verify_") and n.endswith("_wave")
               for n in names)
    assert "pa_allreduce" in names
    assert not names & {"pa_wave", "pa_reverse", "pa_replay"}
