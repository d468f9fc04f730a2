"""E11 + E13 (Figures 1, 3, 4): structural reproductions.

Figure 1: a T-restricted shortcut instance with congestion 3 and block
parameter 2 — rebuilt and measured exactly.  Figures 3/4: sub-part
divisions with O~(|P|/D) sub-parts of O(D) depth, and the wave activating
each block/sub-part once (message counts stay linear-ish).
"""

import math
import random

from repro.bench import print_table, record
from repro.congest import CostLedger, Engine
from repro.core import (
    PASolver,
    SUM,
    build_subpart_division_randomized,
)
from repro.graphs import Partition, grid_2d


def test_figure1_quantities():
    from repro.core import ROOT, RootedForest, Shortcut
    from repro.graphs import path_graph

    def experiment():
        net = path_graph(12)
        tree = RootedForest(net, [ROOT] + list(range(11)))
        part = Partition([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
        up = [set() for _ in range(12)]
        up[4], up[5] = {1, 2, 3}, {1}
        up[7], up[8] = {2}, {2}
        up[9], up[10], up[11] = {3}, {3}, {3}
        sc = Shortcut(tree, part, up)
        print_table(
            "Figure 1: reconstructed instance",
            ["quantity", "value"],
            [("congestion c", sc.congestion()),
             ("block parameter b", sc.max_block_parameter()),
             ("parts", part.num_parts)],
        )
        return sc.quality()

    b, c = experiment()
    assert (b, c) == (2, 3)
    record(b=b, c=c)


def test_figure34_division_structure():
    rows, cols = 4, 30
    net = grid_2d(rows, cols)
    part = Partition([r for r in range(rows) for _ in range(cols)])
    diameter = 10

    def experiment():
        engine = Engine(net)
        ledger = CostLedger()
        leaders = [min(m, key=lambda v: net.uid[v]) for m in part.members]
        division = build_subpart_division_randomized(
            engine, net, part, leaders, diameter, ledger, random.Random(36)
        )
        cost = (ledger.rounds, ledger.messages)
        out = []
        for pid in range(part.num_parts):
            count = len(division.subparts_of_part(pid))
            bound = math.ceil(
                8 * part.size_of(pid) / diameter * math.log(net.n)
            )
            out.append((pid, part.size_of(pid), count, bound))
        print_table(
            "Figures 3/4: sub-part division structure",
            ["part", "size", "sub-parts", "O~(|P|/D) bound"],
            out,
        )
        return division, out, cost

    division, out, cost = experiment()
    assert division.max_subpart_depth() <= 2 * diameter
    for _pid, _size, count, bound in out:
        assert count <= bound
    record(max_depth=division.max_subpart_depth(),
           rounds=cost[0], messages=cost[1])
