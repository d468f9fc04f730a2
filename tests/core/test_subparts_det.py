"""Deterministic sub-part divisions (Algorithm 6)."""

import hashlib

import pytest

from repro.congest import CostLedger, Engine
from repro.core.subparts_det import build_subpart_division_deterministic
from repro.graphs import (
    Partition,
    bfs_ball_partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
    random_regular,
)
from oracles import ENGINE_OF, TwinEngine, random_planar, restrict_roots


def build(net, partition, diameter):
    engine = Engine(net)
    ledger = CostLedger()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    division = build_subpart_division_deterministic(
        engine, net, partition, leaders, diameter, ledger
    )
    return division, ledger


def test_deterministic_division_valid():
    net = grid_2d(4, 15)
    part = Partition([0] * net.n)
    division, _ = build(net, part, 8)
    division.validate()


def test_complete_subparts_reach_threshold():
    net = grid_2d(3, 30)
    part = Partition([0] * net.n)
    threshold = 9
    division, _ = build(net, part, threshold)
    by_root = restrict_roots(division.forest)
    for root, members in by_root.items():
        # Every sub-part is complete: >= threshold nodes, or spans its part.
        assert len(members) >= threshold or len(members) == net.n


def test_subpart_count_bound_deterministic():
    net = grid_2d(3, 30)
    part = Partition([0] * net.n)
    threshold = 9
    division, _ = build(net, part, threshold)
    # Completes have >= threshold nodes, so at most n/threshold + 1 of them.
    assert division.num_subparts() <= net.n // threshold + 1


def test_small_parts_span_themselves():
    net = path_graph(30)
    part = Partition([v // 5 for v in range(30)])  # parts of 5 nodes
    division, _ = build(net, part, 10)
    for pid in range(part.num_parts):
        assert len(division.subparts_of_part(pid)) == 1


def test_deterministic_division_is_reproducible():
    net = random_connected(40, 0.07, seed=8)
    part = random_connected_partition(net, 3, seed=9)
    d1, _ = build(net, part, 6)
    d2, _ = build(net, part, 6)
    assert d1.forest.parent == d2.forest.parent
    assert d1.rep_of == d2.rep_of


def test_subparts_respect_part_boundaries():
    net = random_connected(50, 0.06, seed=10)
    part = random_connected_partition(net, 4, seed=11)
    division, _ = build(net, part, 5)
    for v in range(net.n):
        assert part.part_of[division.rep_of[v]] == part.part_of[v]


def test_tree_depth_bounded():
    net = grid_2d(4, 25)
    part = Partition([0] * net.n)
    threshold = 8
    division, _ = build(net, part, threshold)
    # Star joinings keep merged trees O~(threshold) deep.
    import math

    assert division.forest.height() <= 4 * threshold * math.ceil(
        math.log2(net.n)
    )


#: The inputs the division is pinned on: a grid, a 4-regular expander and a
#: random planar graph, each in a few connected parts.
FIXTURES = {
    "grid": lambda: (
        lambda net: (net, random_connected_partition(net, 4, seed=5))
    )(grid_2d(10, 16)),
    "regular": lambda: (
        lambda net: (net, bfs_ball_partition(net, 40, seed=6))
    )(random_regular(160, 4, seed=2)),
    "planar": lambda: (
        lambda net: (net, random_connected_partition(net, 3, seed=8))
    )(random_planar(150, seed=3)),
}

#: SHA-256 of ``repr((forest.parent, rep_of))``, captured before any node
#: stopped re-announcing an unchanged label or sweeping a complete
#: sub-part: what the division is, whatever it costs to find.
DIVISION_DIGESTS = {
    ("grid", 3):
        "d5bd286cf57cf6abbb230a36b30e87bc20932b363ac2dcd4e58a787acce0524e",
    ("grid", 14):
        "9b0d80c5387697ec1f09a71e31d54f1c671e8da00a0aa129c8edefa9b387114b",
    ("regular", 3):
        "347b7f8743c4baea7f0c2cf36e4e2ee99bd0d328523b379e3148dc54e5197c52",
    ("regular", 14):
        "361d5f9004ad82cf04f231c8d2ca4c8f1c06cb91d25c64ccebc1f7ab02067ea7",
    ("planar", 3):
        "979ceb9f1fb07efb26d2574c2a8f61e8ea744a2d0c7bc4baa88484fb6af7752e",
    ("planar", 14):
        "11b3dd26467752b100fe084274ea8d290f28a4dad5670bbe8d830f851534b820",
}


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("case", DIVISION_DIGESTS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_division_is_the_pinned_one(case, impl):
    kind, threshold = case
    net, partition = FIXTURES[kind]()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    division = build_subpart_division_deterministic(
        ENGINE_OF[impl](net), net, partition, leaders,
        threshold, CostLedger(),
    )
    digest = hashlib.sha256(
        repr((division.forest.parent, division.rep_of)).encode()
    ).hexdigest()
    assert digest == DIVISION_DIGESTS[case]


class _Spy(TwinEngine):
    """A scalar-twin engine that keeps every program it ran, by phase name."""

    def __init__(self, net):
        super().__init__(net)
        self.runs = []

    def run(self, program, max_ticks, **budget):
        stats = super().run(program, max_ticks, **budget)
        self.runs.append((program.name, program))
        return stats


def test_nodes_speak_only_on_news():
    """After the first announce a node re-announces only a changed pair,
    to every in-part neighbor; a complete sub-part sends nothing in
    ``det_sizes`` or ``det_choose``."""
    net, partition = FIXTURES["regular"]()
    engine = _Spy(net)
    build_subpart_division_deterministic(
        engine, net, partition, list(range(partition.num_parts)), 14,
        CostLedger(),
    )
    fan_out = {
        v: sum(partition.part_of[u] == partition.part_of[v]
               for u in net.neighbors[v])
        for v in range(net.n)
    }
    said = {}
    complete = set()
    announces = sweeps_after_completion = 0
    for name, program in engine.runs:
        if name == "det_announce":
            src, _dst, payloads = program.sends
            spoke = {}
            for v, payload in zip(src.tolist(), payloads):
                spoke.setdefault(v, []).append(payload)
            for v, pairs in spoke.items():
                # one pair, to every in-part neighbor, and a new one
                pair = pairs[0]
                assert pairs == [pair] * fan_out[v]
                assert said.get(v) != pair, (v, pair)
                said[v] = pair
            announces += 1
        elif name in ("det_sizes", "det_choose"):
            members = set(program.forest.members())
            assert not members & complete, name
            sweeps_after_completion += bool(complete)
        elif name in ("det_complete_flags", "det_isolated_complete"):
            complete.update(v for v, p in program.received.items() if p[1])
        elif name == "det_merge":
            complete.update(
                v for v, (_rep, flag) in program.new_label.items() if flag
            )
    # Not vacuous: several announces, and sweeps that skipped finished work.
    assert announces >= 3 and sweeps_after_completion >= 2
    assert set(said) == {v for v, count in fan_out.items() if count}
