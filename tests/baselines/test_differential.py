"""Baselines vs. the optimized paths: differential pins on shared instances.

The baselines (``block_aggregation_pa``, ``ghs_mst``) and
the paper's algorithms (``solve_pa``, ``minimum_spanning_tree``) claim to
compute the *same functions* by different schedules.  These tests run
both sides on identical seeded instances and pin output equality — plus
the ``analysis.reference`` oracles as a third, sequential, opinion — so
a regression in either path (or a silent divergence between them) fails
loudly instead of being two independently-plausible answers.
"""

from __future__ import annotations

import pytest

from repro.analysis import kruskal_mst
from repro.analysis.reference import mst_weight
from repro.algorithms import minimum_spanning_tree
from repro.baselines import block_aggregation_pa, ghs_mst
from repro.core import MIN, solve_pa
from repro.graphs import (
    grid_2d,
    preferential_attachment,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)

MODES = ["randomized", "deterministic"]

#: Shared seeded instances: (name, network factory, #parts).
PA_INSTANCES = [
    ("random", lambda: random_connected(34, 0.08, seed=21), 5),
    ("grid", lambda: grid_2d(5, 7), 4),
    ("pref-attach", lambda: preferential_attachment(30, attach=2, seed=8), 3),
]


def _expected(partition, values, fold):
    return {
        pid: fold([values[v] for v in partition.members[pid]])
        for pid in range(partition.num_parts)
    }


@pytest.mark.parametrize("name,make_net,k", PA_INSTANCES,
                         ids=[i[0] for i in PA_INSTANCES])
def test_block_aggregation_pa_matches_solve_pa(name, make_net, k):
    net = make_net()
    partition = random_connected_partition(net, k, seed=29)
    values = [net.uid[v] for v in range(net.n)]
    naive = block_aggregation_pa(net, partition, values, MIN)
    optimized = solve_pa(net, partition, values, MIN, seed=5)
    assert naive.output == optimized.aggregates == _expected(partition, values, min)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [3, 17, 40])
def test_ghs_mst_matches_pa_mst_and_kruskal(mode, seed):
    net = with_distinct_weights(random_connected(32, 0.09, seed=seed), seed=seed + 1)
    baseline = ghs_mst(net, seed=seed)
    optimized = minimum_spanning_tree(net, mode=mode, seed=seed)
    oracle = frozenset(kruskal_mst(net))
    assert frozenset(baseline.output) == oracle
    assert optimized.output == oracle
    assert mst_weight(net, set(baseline.output)) == mst_weight(net, set(optimized.output))


def test_ghs_is_message_frugal_on_shared_instance():
    """The two MSTs agree on a shared high-diameter instance while
    sitting at their characteristic points of the tradeoff space: GHS
    stays message-frugal (O((m+n) log n), no shortcut construction to
    pay for), which at this scale means strictly fewer messages than the
    PA-based algorithm — whose asymptotic round advantage only cashes in
    at sizes the benchmarks (not unit tests) measure."""
    net = with_distinct_weights(grid_2d(3, 40), seed=2)  # D ~ 42
    baseline = ghs_mst(net, seed=1)
    optimized = minimum_spanning_tree(net, seed=1)
    assert frozenset(baseline.output) == optimized.output == frozenset(kruskal_mst(net))
    assert baseline.messages < optimized.messages


@pytest.mark.parametrize("mode", MODES)
def test_differential_agreement_survives_weight_permutation(mode):
    """Same topology, different weight draws: all three MST opinions keep
    agreeing (guards against tie-break divergence between the paths)."""
    base = random_connected(24, 0.1, seed=6)
    for wseed in (0, 1, 2):
        net = with_distinct_weights(base, seed=wseed)
        oracle = frozenset(kruskal_mst(net))
        assert frozenset(ghs_mst(net, seed=wseed).output) == oracle
        assert minimum_spanning_tree(net, mode=mode, seed=wseed).output == oracle
