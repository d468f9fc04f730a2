"""Algorithm 9 under adversarial shapes: ties, singletons, repetition.

The recovery driver leans on :func:`solve_pa_without_leaders` for every
retry — these tests pin the re-election machinery (star-joining
coarsening with fresh leader election) on the degenerate instances a
crash can leave behind: highly symmetric graphs where every pick is a
tie, partitions shredded into singletons or a lone survivor part, and
repeated elections over the same network in both modes.
"""

import pytest

from repro.core import MAX, MIN, SUM, solve_pa
from repro.core.no_leader import solve_pa_without_leaders
from repro.graphs import (
    Partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
)
from oracles import star_graph


def expected(partition, values, fold):
    return {
        pid: fold(values[v] for v in members)
        for pid, members in enumerate(partition.members)
    }


# ---------------------------------------------------------------------------
# Ties: symmetric instances where every election choice is a dead heat
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_reelection_with_tied_values_and_symmetric_parts(mode):
    # A grid split into identical columns, with *equal* values
    # everywhere: part sizes tie, aggregate contributions tie, and the
    # star-joining picks see symmetric candidates — only UIDs break ties.
    net = grid_2d(4, 4)
    parts = Partition([v % 4 for v in range(net.n)])
    values = [7] * net.n
    res = solve_pa_without_leaders(net, parts, values, SUM, mode=mode, seed=3)
    assert res.aggregates == {pid: 28 for pid in range(4)}
    assert all(res.value_at_node[v] == 28 for v in range(net.n))


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_star_center_ties_every_leaf(mode):
    # A star with the hub's part holding half the leaves and every other
    # leaf a singleton: all the singletons are mutually symmetric, and
    # each one's only possible pick is the hub part — maximal contention
    # on one target (parts must be connected, so leaves can't group).
    net = star_graph(9)
    parts = Partition([0] + [0] * 4 + [1, 2, 3, 4])
    values = [1] * net.n
    res = solve_pa_without_leaders(net, parts, values, SUM, mode=mode, seed=5)
    assert res.aggregates == {0: 5, 1: 1, 2: 1, 3: 1, 4: 1}


# ---------------------------------------------------------------------------
# Degenerate partitions: singletons and single survivors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_all_singleton_parts(mode):
    # Post-crash Boruvka restarts from exactly this shape: every node is
    # its own part and its own leader.
    net = random_connected(18, 0.15, seed=4)
    parts = Partition(list(range(net.n)))
    values = [(v * 11 + 1) % 23 for v in range(net.n)]
    res = solve_pa_without_leaders(net, parts, values, MAX, mode=mode, seed=6)
    assert res.aggregates == {v: values[v] for v in range(net.n)}
    assert list(res.value_at_node) == values


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_single_survivor_part_spanning_the_graph(mode):
    net = random_connected(20, 0.12, seed=8)
    parts = Partition([0] * net.n)
    values = [net.uid[v] for v in range(net.n)]
    res = solve_pa_without_leaders(net, parts, values, MIN, mode=mode, seed=9)
    assert res.aggregates == {0: min(values)}
    assert all(res.value_at_node[v] == min(values) for v in range(net.n))


def test_one_giant_part_plus_singletons():
    # One surviving part and a fringe of singleton stragglers — the
    # mixed shape a partial re-merge leaves behind.
    net = path_graph(10)
    parts = Partition([0] * 7 + [1, 2, 3])
    values = [2] * 10
    res = solve_pa_without_leaders(net, parts, values, SUM, seed=11)
    assert res.aggregates == {0: 14, 1: 2, 2: 2, 3: 2}


def test_two_node_network():
    net = path_graph(2)
    parts = Partition([0, 1])
    res = solve_pa_without_leaders(net, parts, [5, 9], SUM, seed=12)
    assert res.aggregates == {0: 5, 1: 9}


# ---------------------------------------------------------------------------
# Repeated elections on the same network
# ---------------------------------------------------------------------------

def test_repeated_elections_agree_across_seeds():
    # The recovery driver bumps the seed each retry: every seed must
    # elect its way to the same exact aggregates.
    net = random_connected(24, 0.12, seed=14)
    parts = random_connected_partition(net, 5, seed=15)
    values = [(v * 7 + 3) % 101 for v in range(net.n)]
    want = expected(parts, values, sum)
    for seed in range(5):
        res = solve_pa_without_leaders(net, parts, values, SUM, seed=seed)
        assert res.aggregates == want, f"seed {seed} diverged"


def test_repeated_elections_are_deterministic_per_seed():
    net = random_connected(16, 0.15, seed=21)
    parts = random_connected_partition(net, 4, seed=22)
    values = [v % 13 for v in range(net.n)]
    a = solve_pa_without_leaders(net, parts, values, SUM, seed=33)
    b = solve_pa_without_leaders(net, parts, values, SUM, seed=33)
    assert a.aggregates == b.aggregates
    assert a.value_at_node == b.value_at_node
    assert [(p.name, p.rounds, p.messages) for p in a.ledger.phases()] == [
        (p.name, p.rounds, p.messages) for p in b.ledger.phases()
    ]


def test_election_cost_lands_on_alg9_phases():
    # The recovery accounting splits on the alg9_ prefix; make sure the
    # election rounds actually carry it (and the final solve does not).
    net = random_connected(20, 0.12, seed=25)
    parts = random_connected_partition(net, 4, seed=26)
    values = [1] * net.n
    res = solve_pa_without_leaders(net, parts, values, SUM, seed=27)
    names = [p.name for p in res.ledger.phases()]
    assert any(n.startswith("alg9_") for n in names)
    assert any(n.startswith("alg9_final_setup:") for n in names)
    assert any(not n.startswith("alg9_") for n in names)  # the waves
    reference = solve_pa(net, parts, values, SUM, seed=27)
    assert res.aggregates == reference.aggregates
