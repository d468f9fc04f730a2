"""End-to-end Part-Wise Aggregation (Theorem 1.2) + Algorithm 9."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DETERMINISTIC,
    MAX,
    MIN,
    RANDOMIZED,
    SUM,
    PASolver,
    solve_pa,
)
from repro.core.no_leader import solve_pa_without_leaders
from repro.graphs import (
    Partition,
    grid_2d,
    grid_with_apex,
    path_graph,
    random_connected,
    random_connected_partition,
    row_partition,
)
from oracles import singleton_partition, whole_graph_partition


def expected_aggregates(partition, values, fold):
    return {
        pid: fold([values[v] for v in partition.members[pid]])
        for pid in range(partition.num_parts)
    }


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_pa_min_on_apex_grid(mode):
    rows, cols = 4, 8
    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    values = [net.uid[v] for v in range(net.n)]
    res = solve_pa(net, part, values, MIN, mode=mode, seed=1)
    assert res.aggregates == expected_aggregates(part, values, min)
    for v in range(net.n):
        assert res.value_at_node[v] == res.aggregates[part.part_of[v]]


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_pa_sum_counts_part_sizes(mode, small_random, small_random_parts):
    res = solve_pa(
        small_random, small_random_parts, [1] * small_random.n, SUM,
        mode=mode, seed=2,
    )
    expected = {
        pid: small_random_parts.size_of(pid)
        for pid in range(small_random_parts.num_parts)
    }
    assert res.aggregates == expected


def test_pa_max_aggregation(small_random, small_random_parts):
    values = [(v * 37) % 101 for v in range(small_random.n)]
    res = solve_pa(small_random, small_random_parts, values, MAX, seed=3)
    assert res.aggregates == expected_aggregates(
        small_random_parts, values, max
    )


def test_pa_singleton_partition(path10):
    part = singleton_partition(path10)
    values = list(range(10, 20))
    res = solve_pa(path10, part, values, SUM, seed=4)
    assert res.aggregates == {pid: values[pid] for pid in range(10)}


def test_pa_whole_graph_partition(grid4x6):
    part = whole_graph_partition(grid4x6)
    res = solve_pa(grid4x6, part, [1] * grid4x6.n, SUM, seed=5)
    assert res.aggregates == {0: grid4x6.n}


def test_pa_none_values_are_identity(small_random, small_random_parts):
    values = [None] * small_random.n
    for pid in range(small_random_parts.num_parts):
        values[small_random_parts.members[pid][0]] = pid + 100
    res = solve_pa(small_random, small_random_parts, values, MIN, seed=6)
    assert res.aggregates == {
        pid: pid + 100 for pid in range(small_random_parts.num_parts)
    }


def test_pa_message_budget_near_linear():
    """Theorem 1.2's O~(m) messages, with a concrete polylog envelope."""
    net = grid_2d(6, 25)
    part = Partition([r for r in range(6) for _ in range(25)])
    res = solve_pa(net, part, [1] * net.n, SUM, seed=7)
    polylog = math.log2(net.n) ** 2
    assert res.messages <= 60 * net.m * polylog


def test_pa_setup_reuse_amortizes(small_random, small_random_parts):
    solver = PASolver(small_random, seed=8)
    setup = solver.prepare(small_random_parts)
    first = solver.solve(setup, [1] * small_random.n, SUM)
    second = solver.solve(
        setup, list(range(small_random.n)), MAX, charge_setup=False
    )
    assert second.rounds < first.rounds
    assert second.aggregates == expected_aggregates(
        small_random_parts, list(range(small_random.n)), max
    )


def test_pa_rejects_bad_leader(small_random, small_random_parts):
    solver = PASolver(small_random, seed=9)
    bad_leader = small_random_parts.members[1][0]
    leaders = [bad_leader] * small_random_parts.num_parts
    with pytest.raises(ValueError):
        solver.prepare(small_random_parts, leaders=leaders)


def test_pa_rejects_disconnected_part(path10):
    part = Partition([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(Exception):
        solve_pa(path10, part, [1] * 10, SUM, seed=10)


def test_deterministic_mode_reproducible(small_random, small_random_parts):
    r1 = solve_pa(
        small_random, small_random_parts, [1] * small_random.n, SUM,
        mode=DETERMINISTIC, seed=0,
    )
    r2 = solve_pa(
        small_random, small_random_parts, [1] * small_random.n, SUM,
        mode=DETERMINISTIC, seed=99,  # seed must not matter
    )
    assert r1.rounds == r2.rounds
    assert r1.messages == r2.messages


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=28),
    num_parts=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pa_property_random_instances(n, num_parts, seed):
    """PA computes exact part sums on arbitrary connected instances."""
    net = random_connected(n, 0.15, seed=seed)
    parts = random_connected_partition(net, min(num_parts, n), seed=seed + 1)
    values = [(v * 13 + seed) % 50 for v in range(n)]
    res = solve_pa(net, parts, values, SUM, seed=seed + 2)
    assert res.aggregates == expected_aggregates(parts, values, sum)


def test_algorithm9_pa_without_leaders():
    net = random_connected(30, 0.1, seed=15)
    parts = random_connected_partition(net, 3, seed=16)
    values = [net.uid[v] for v in range(net.n)]
    res = solve_pa_without_leaders(net, parts, values, MIN, seed=17)
    assert res.aggregates == expected_aggregates(parts, values, min)


def test_algorithm9_on_path():
    net = path_graph(12)
    parts = Partition([0] * 6 + [1] * 6)
    res = solve_pa_without_leaders(net, parts, [1] * 12, SUM, seed=18)
    assert res.aggregates == {0: 6, 1: 6}
