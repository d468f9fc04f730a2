"""E3 (Table 2): PA round complexity per family, deterministic vs randomized.

Paper claim (Table 2): per-family runtimes O~(D) for planar/pathwidth-like
families, O~(D + sqrt n) in general; randomized O~(bD + c) at most the
deterministic O~(b(D + c)).
"""

from repro.analysis import TABLE2_DETERMINISTIC, TABLE2_RANDOMIZED
from repro.bench import print_table, record
from repro.core import DETERMINISTIC, RANDOMIZED, SUM, PASolver
from repro.graphs import (
    grid_2d,
    ladder,
    random_connected_partition,
    random_regular_ish,
    torus_2d,
)

FAMILIES = {
    "general": lambda: random_regular_ish(64, 5, seed=7),
    "planar": lambda: grid_2d(4, 14),
    "genus": lambda: torus_2d(4, 10),
    "pathwidth": lambda: ladder(24),
}


def _solve(net, part, mode):
    solver = PASolver(net, mode=mode, seed=8)
    setup = solver.prepare(part)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
    return result


def test_table2_round_complexity():
    def experiment():
        rows = []
        data = {}
        for family, make in FAMILIES.items():
            net = make()
            part = random_connected_partition(net, max(2, net.n // 12), seed=9)
            det = _solve(net, part, DETERMINISTIC)
            rand = _solve(net, part, RANDOMIZED)
            d = net.diameter_estimate()
            data[family] = (det.rounds, rand.rounds, d, net.n, det.messages)
            rows.append(
                (
                    family, net.n, d,
                    det.rounds, TABLE2_DETERMINISTIC[family],
                    rand.rounds, TABLE2_RANDOMIZED[family],
                )
            )
        print_table(
            "Table 2: PA solve rounds (excluding setup), det vs randomized",
            ["family", "n", "D", "det rounds", "det bound",
             "rand rounds", "rand bound"],
            rows,
        )
        return data

    data = experiment()
    import math

    for family, (det_rounds, rand_rounds, d, n, _msgs) in data.items():
        envelope = (d + math.sqrt(n)) * math.log2(n) ** 2
        assert det_rounds <= 40 * envelope, family
        assert rand_rounds <= 40 * envelope, family
        record(**{f"{family}_det": det_rounds,
                             f"{family}_rand": rand_rounds})
    record(rounds=data["general"][0], messages=data["general"][4])
