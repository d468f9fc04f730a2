"""E2 (Table 1): measured shortcut quality (b, c) per graph family.

Paper claim (Table 1): general graphs admit (b=1, c=sqrt n); planar
(b=O(log D), c=O~(D)); genus-g (b=O(sqrt g), c=O~(sqrt g D)); treewidth-t
(b=O(t), c=O~(t)); pathwidth-p (b=p, c=p).  We construct shortcuts with
the randomized pipeline and report measured (b, c) next to the targets.
"""

import math

from repro.analysis import TABLE1
from repro.bench import print_table, record
from repro.core import PASolver
from repro.graphs import (
    grid_2d,
    k_tree,
    ladder,
    random_connected_partition,
    random_regular_ish,
    torus_2d,
)

FAMILIES = {
    "general": (lambda: random_regular_ish(128, 5, seed=3), 1),
    "planar": (lambda: grid_2d(6, 20), 1),
    "genus": (lambda: torus_2d(6, 16), 1),
    "treewidth": (lambda: k_tree(96, 3, seed=4), 3),
    "pathwidth": (lambda: ladder(48), 2),
}


def test_table1_shortcut_quality():
    def experiment():
        out_rows = []
        measured = {}
        setup_cost = None
        for family, (make, param) in FAMILIES.items():
            net = make()
            part = random_connected_partition(net, max(2, net.n // 12), seed=5)
            solver = PASolver(net, seed=6)
            setup = solver.prepare(part)
            b, c = setup.quality()
            if setup_cost is None or family == "general":
                # Headline cost: the "general" family, falling back to the
                # first family if the dict is ever reshuffled.
                setup_cost = (setup.setup_ledger.rounds,
                              setup.setup_ledger.messages)
            d = net.diameter_estimate()
            bounds = TABLE1[family]
            tb = bounds.block_parameter(net.n, d, param)
            tc = bounds.congestion(net.n, d, param)
            measured[family] = (b, c, tb, tc)
            out_rows.append(
                (family, net.n, d, b, f"{tb:.1f}", c, f"{tc:.1f}")
            )
        print_table(
            "Table 1: measured vs known (b, c) per family",
            ["family", "n", "D", "b meas", "b known", "c meas", "c known"],
            out_rows,
        )

        return measured, setup_cost

    measured, setup_cost = experiment()
    for family, (b, c, tb, tc) in measured.items():
        n = 128
        polylog = math.log2(n) ** 2
        assert b <= max(3, tb * polylog), family
        assert c <= max(3, tc * polylog), family
        record(**{f"{family}_b": b, f"{family}_c": c})
    record(rounds=setup_cost[0], messages=setup_cost[1])
