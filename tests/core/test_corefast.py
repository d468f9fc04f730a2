"""Randomized shortcut construction (CoreFast / Algorithm 4)."""

import random

from repro.congest import CostLedger, Engine
from repro.core import (
    PASolver,
    bfs_tree,
    build_shortcut_randomized,
    build_subpart_division_randomized,
)
from repro.graphs import (
    Partition,
    grid_2d,
    grid_with_apex,
    random_connected,
    random_connected_partition,
    row_partition,
)
from oracles import blocks_of_part, edges_of_part, validate_shortcut


def construct(net, partition, seed=0, **kwargs):
    engine = Engine(net)
    ledger = CostLedger()
    rng = random.Random(seed)
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    diameter = net.diameter_estimate()
    tree = bfs_tree(engine, net, 0, CostLedger()).tree
    division = build_subpart_division_randomized(
        engine, net, partition, leaders, diameter, ledger, rng
    )
    build = build_shortcut_randomized(
        engine, net, partition, division, tree, diameter, ledger, rng, **kwargs
    )
    return build, ledger, diameter


def test_constructed_shortcut_is_wellformed():
    rows, cols = 4, 12
    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    build, _, _ = construct(net, part)
    validate_shortcut(build.shortcut)


def test_block_counts_match_structure():
    net = random_connected(60, 0.05, seed=2)
    part = random_connected_partition(net, 5, seed=3)
    build, _, _ = construct(net, part, seed=4)
    for pid in range(part.num_parts):
        oracle = len(blocks_of_part(build.shortcut, pid))
        assert build.block_counts[pid] == oracle


def test_small_parts_get_no_shortcut_edges():
    net = grid_2d(5, 5)
    part = random_connected_partition(net, 6, seed=5)
    build, _, diameter = construct(net, part)
    for pid in range(part.num_parts):
        if part.size_of(pid) <= diameter:
            assert edges_of_part(build.shortcut, pid) == []


def test_congestion_respects_budget_growth():
    net = grid_2d(3, 30)
    part = Partition([r for r in range(3) for _ in range(30)])
    build, _, _ = construct(net, part, congestion_budget=2, grow_budget=False,
                            max_iterations=2)
    # Per run, each edge admits at most 2 * budget parts; two runs total.
    assert build.shortcut.congestion() <= 2 * (2 * 2)


def test_shortcut_edges_are_climb_prefixes():
    """Every H_i is a union of upward path prefixes from part members."""
    net = grid_2d(3, 25)
    part = Partition([r for r in range(3) for _ in range(25)])
    build, _, _ = construct(net, part, seed=6)
    sc = build.shortcut
    tree = sc.tree
    for pid in range(part.num_parts):
        for block in blocks_of_part(sc, pid):
            bottoms = [
                v for v in block
                if not any(
                    pid in sc.up_parts[c] and c in block
                    for c in tree.children[v]
                )
            ]
            for v in bottoms:
                assert part.part_of[v] == pid, (
                    "every minimal block node must be a claim origin"
                )


def test_message_budget_near_linear():
    net = grid_2d(4, 25)
    part = Partition([r for r in range(4) for _ in range(25)])
    build, ledger, _ = construct(net, part, seed=7)
    import math

    polylog = math.log2(net.n) ** 2
    assert ledger.messages <= 40 * net.m * polylog
