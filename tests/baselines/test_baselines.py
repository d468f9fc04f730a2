"""Prior-work baselines: correctness plus their characteristic weaknesses."""

from repro.baselines import block_aggregation_pa, ghs_mst
from repro.analysis import kruskal_mst
from repro.core import MIN, SUM, solve_pa
from repro.graphs import (
    grid_2d,
    grid_with_apex,
    random_connected,
    random_connected_partition,
    row_partition,
    with_distinct_weights,
)


def expected(partition, values, fold):
    return {
        pid: fold([values[v] for v in partition.members[pid]])
        for pid in range(partition.num_parts)
    }


def test_naive_block_pa_correct_on_apex_grid(apex_grid):
    net, part = apex_grid
    values = [net.uid[v] for v in range(net.n)]
    run = block_aggregation_pa(net, part, values, MIN, root=net.n - 1)
    assert run.output == expected(part, values, min)
    per_node = run.meta["value_at_node"]
    for v in range(net.n):
        assert per_node[v] == run.output[part.part_of[v]]


def test_naive_block_pa_message_blowup_grows_with_depth():
    """The Section 3.1 lower bound: ~n*D messages for the up phase."""
    cols = 16
    messages = {}
    for rows in (4, 8, 16):
        net = grid_with_apex(rows, cols)
        part = row_partition(rows, cols, include_apex=True)
        values = [1] * net.n
        run = block_aggregation_pa(net, part, values, SUM, root=rows * cols)
        messages[rows] = run.messages / net.n
    # Messages per node grow linearly with the depth D = rows (an affine
    # trend: each value travels ~D/2 tree hops before it can merge).
    assert messages[8] > messages[4]
    assert messages[16] > 2 * messages[4]
    slope_lo = (messages[8] - messages[4]) / 4
    slope_hi = (messages[16] - messages[8]) / 8
    assert slope_hi >= 0.6 * slope_lo  # stays linear, not flattening


def test_naive_block_pa_beaten_by_subpart_pa_on_deep_grids():
    rows, cols = 12, 16
    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    values = [1] * net.n
    naive = block_aggregation_pa(net, part, values, SUM, root=rows * cols)
    ours = solve_pa(net, part, values, SUM, seed=1)
    assert ours.aggregates == naive.output
    # The PA waves themselves (excluding one-time construction) use far
    # fewer messages than the baseline's block aggregation.
    wave_msgs = sum(
        p.messages for p in ours.ledger.phases() if p.name.startswith("pa_")
    )
    assert wave_msgs < naive.messages


def test_ghs_mst_correct(weighted_random):
    run = ghs_mst(weighted_random, seed=1)
    assert set(run.output) == kruskal_mst(weighted_random)


def test_ghs_mst_on_grid():
    net = with_distinct_weights(grid_2d(4, 6), seed=2)
    run = ghs_mst(net, seed=3)
    assert set(run.output) == kruskal_mst(net)


def test_ghs_messages_stay_near_linear(weighted_random):
    import math

    run = ghs_mst(weighted_random, seed=4)
    bound = 8 * (weighted_random.m + weighted_random.n) * math.log2(
        weighted_random.n
    )
    assert run.messages <= bound
