"""E6 (Corollary 1.4): approximate min-cut quality and eps scaling.

Paper claim: (1+eps)-approximation with cost scaling poly(1/eps).  We
plant a known min cut, sweep eps, and report the measured approximation
ratio and the packed-tree count (the poly(1/eps) driver).
"""

from repro.algorithms import approx_min_cut
from repro.analysis import cut_weight, stoer_wagner_min_cut
from repro.bench import print_table, record
from repro.graphs import grid_2d, with_planted_cut


def test_mincut_eps_sweep():
    base = grid_2d(3, 10)
    side = {r * 10 + c for r in range(3) for c in range(5)}
    net = with_planted_cut(base, side, cut_weight_each=1, bulk_weight=200)
    exact = stoer_wagner_min_cut(net)

    def experiment():
        rows = []
        ratios = {}
        for eps in (1.0, 0.6, 0.35):
            run = approx_min_cut(net, epsilon=eps, seed=19, max_trees=6)
            value, side_bits = run.output
            realized = cut_weight(
                net, {v for v in range(net.n) if side_bits[v] == 1}
            )
            assert realized == value
            ratios[eps] = (value / exact, run.meta["trees_packed"],
                           run.rounds, run.messages)
            rows.append(
                (eps, exact, value, f"{value / exact:.3f}",
                 run.meta["trees_packed"], run.rounds, run.messages)
            )
        print_table(
            "Corollary 1.4: min-cut approximation vs eps",
            ["eps", "exact", "found", "ratio", "trees packed",
             "rounds", "messages"],
            rows,
        )
        return ratios

    ratios = experiment()
    for eps, (ratio, trees, _r, _m) in ratios.items():
        assert ratio <= 1.0 + eps + 1e-9
    # Cost grows as eps shrinks (the poly(1/eps) shape).
    assert ratios[0.35][1] >= ratios[1.0][1]
    assert ratios[0.35][3] >= ratios[1.0][3]
    record(ratios={str(k): v[0] for k, v in ratios.items()},
           rounds=ratios[0.35][2], messages=ratios[0.35][3])
