"""Randomized sub-part divisions (Algorithm 3, Definition 4.1)."""

import random

from repro.congest import CostLedger, Engine
from repro.core import PASolver, build_subpart_division_randomized
from repro.graphs import (
    Partition,
    grid_2d,
    grid_with_apex,
    random_connected,
    random_connected_partition,
    row_partition,
)
from oracles import division_from_groups


def build(net, partition, diameter, seed=0):
    engine = Engine(net)
    ledger = CostLedger()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    division = build_subpart_division_randomized(
        engine, net, partition, leaders, diameter, ledger, random.Random(seed)
    )
    return division, ledger


def test_division_is_valid_on_grid_rows():
    rows, cols = 4, 12
    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    diameter = net.diameter_estimate()
    division, _ = build(net, part, diameter)
    division.validate(diameter_bound=2 * diameter)


def test_small_parts_become_single_subparts():
    net = grid_2d(3, 4)
    part = random_connected_partition(net, 4, seed=7)
    diameter = net.diameter_estimate()  # parts are tiny relative to D
    division, _ = build(net, part, diameter)
    for pid in range(part.num_parts):
        if part.size_of(pid) <= diameter:
            assert len(division.subparts_of_part(pid)) == 1
            # ... rooted at the part leader.
            assert division.subparts_of_part(pid) == [division.part_leader[pid]]


def test_subpart_count_bound_on_large_parts():
    rows, cols = 3, 40
    net = grid_2d(rows, cols)
    part = Partition([r for r in range(rows) for _ in range(cols)])
    diameter = 8  # force "large part" handling with a small D
    division, _ = build(net, part, diameter)
    import math

    log_n = math.log(net.n)
    for pid in range(part.num_parts):
        count = len(division.subparts_of_part(pid))
        bound = 8 * (part.size_of(pid) / diameter) * log_n
        assert count <= bound
        assert count >= 2  # genuinely divided


def test_subpart_trees_stay_within_parts():
    net = random_connected(60, 0.05, seed=3)
    part = random_connected_partition(net, 4, seed=4)
    division, _ = build(net, part, 5, seed=9)
    for v in range(net.n):
        assert part.part_of[division.rep_of[v]] == part.part_of[v]
        parent = division.forest.parent[v]
        if parent >= 0:
            assert part.part_of[parent] == part.part_of[v]


def test_division_cost_is_linearish():
    net = grid_2d(6, 20)
    part = Partition([0] * net.n)
    division, ledger = build(net, part, 10)
    assert ledger.messages <= 20 * net.m
    assert ledger.rounds <= 30 * 10 + 4 * net.diameter_estimate() + 60


def test_division_from_groups_fixture_helper(grid4x6):
    part = Partition([0] * 24)
    division = division_from_groups(
        grid4x6, part, leaders=[0],
        groups=[range(0, 12), range(12, 24)],
    )
    assert division.num_subparts() == 2
