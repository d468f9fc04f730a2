"""Deterministic shortcut construction (Algorithm 8)."""

from repro.congest import CostLedger, Engine
from repro.core import bfs_tree
from repro.core.det_shortcut import build_shortcut_deterministic
from repro.core.subparts_det import build_subpart_division_deterministic
from repro.graphs import (
    Partition,
    grid_2d,
    grid_with_apex,
    random_connected,
    random_connected_partition,
    row_partition,
)
from oracles import blocks_of_part, edges_of_part, validate_shortcut


def construct(net, partition, **kwargs):
    engine = Engine(net)
    ledger = CostLedger()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    diameter = net.diameter_estimate()
    tree = bfs_tree(engine, net, 0, CostLedger()).tree
    division = build_subpart_division_deterministic(
        engine, net, partition, leaders, diameter, ledger
    )
    build = build_shortcut_deterministic(
        engine, net, partition, division, tree, diameter, ledger, **kwargs
    )
    return build, ledger


def test_deterministic_shortcut_wellformed():
    rows, cols = 4, 10
    net = grid_with_apex(rows, cols)
    part = row_partition(rows, cols, include_apex=True)
    build, _ = construct(net, part)
    validate_shortcut(build.shortcut)


def test_block_counts_match_oracle():
    net = random_connected(50, 0.06, seed=3)
    part = random_connected_partition(net, 4, seed=4)
    build, _ = construct(net, part)
    for pid in range(part.num_parts):
        assert build.block_counts[pid] == len(
            blocks_of_part(build.shortcut, pid)
        )


def test_construction_is_deterministic():
    net = grid_2d(3, 20)
    part = Partition([r for r in range(3) for _ in range(20)])
    b1, _ = construct(net, part)
    b2, _ = construct(net, part)
    assert b1.shortcut.up_parts == b2.shortcut.up_parts


def test_small_parts_skip_construction():
    net = grid_2d(5, 5)
    part = random_connected_partition(net, 6, seed=5)
    build, _ = construct(net, part)
    diameter = net.diameter_estimate()
    for pid in range(part.num_parts):
        if part.size_of(pid) <= diameter:
            assert edges_of_part(build.shortcut, pid) == []


def test_climb_prefix_invariant_holds():
    net = grid_2d(3, 25)
    part = Partition([r for r in range(3) for _ in range(25)])
    build, _ = construct(net, part)
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
                assert part.part_of[v] == pid
