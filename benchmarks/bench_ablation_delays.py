"""E15 (ablation): the Section 4.2 random delays and meta-rounds.

Paper claim: randomized PA delays each part uniformly in [0, c) so that
per-edge load per meta-round is O(log n) w.h.p., giving O~(bD + c) rounds
vs the deterministic O~(b(D + c)).  We run the same many-parts workload in
both modes and report solve rounds; the deterministic variant pays the
congestion term per wave, the randomized one amortizes it.
"""

from repro.bench import print_table, record
from repro.core import DETERMINISTIC, RANDOMIZED, SUM, PASolver
from repro.graphs import grid_2d, Partition


def test_delay_ablation():
    rows_, cols = 6, 20
    net = grid_2d(rows_, cols)
    part = Partition([r for r in range(rows_) for _ in range(cols)])

    def experiment():
        out = {}
        for mode in (DETERMINISTIC, RANDOMIZED):
            solver = PASolver(net, mode=mode, seed=37)
            setup = solver.prepare(part)
            result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
            b, c = setup.quality()
            out[mode] = (result.rounds, result.messages, b, c)
        print_table(
            "Ablation: deterministic vs randomized (delays + meta-rounds)",
            ["mode", "solve rounds", "messages", "b", "c"],
            [(m, *v) for m, v in out.items()],
        )
        return out

    out = experiment()
    assert out[DETERMINISTIC][0] > 0 and out[RANDOMIZED][0] > 0
    # Both must be correct and within a small factor of each other here;
    # the structural point is that both terminate with the same aggregates
    # while charging their respective round disciplines.
    record(det=out[DETERMINISTIC][0], rand=out[RANDOMIZED][0],
           rounds=out[RANDOMIZED][0], messages=out[RANDOMIZED][1])
