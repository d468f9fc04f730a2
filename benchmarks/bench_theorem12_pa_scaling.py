"""E4 (Theorem 1.2): PA scaling on general graphs.

Paper claim: O~(D + sqrt n) rounds and O~(m) messages.  We sweep n on a
bounded-degree general family and report rounds / (D + sqrt n) and
messages / m: both ratios should stay within polylog factors (flat-ish),
rather than growing polynomially.

The sweep runs with ``strict_bits=False`` and ``strict_edges=False``:
payload sizes and program sends are pinned by the test suite
(``tests/congest/test_engine_edge.py`` proves audit-off runs charge
identical rounds/messages), so the per-message audits are pure simulator
overhead here.  The ledger numbers are identical either way.
"""

import math

from repro.bench import print_table, record
from repro.core import SUM, PASolver
from repro.graphs import random_connected_partition, random_regular_ish

SIZES = (36, 64, 100, 144)


def test_theorem12_scaling():
    def experiment():
        rows = []
        ratios = []
        headline = {}
        for n in SIZES:
            net = random_regular_ish(n, 4, seed=11)
            part = random_connected_partition(net, max(2, n // 10), seed=12)
            solver = PASolver(
                net, seed=13, strict_bits=False, strict_edges=False
            )
            setup = solver.prepare(part)
            result = solver.solve(setup, [1] * n, SUM, charge_setup=False)
            d = net.diameter_estimate()
            round_ratio = result.rounds / (d + math.sqrt(n))
            # Total messages include the one-time setup (construction is
            # part of Theorem 1.2's budget).
            total_msgs = result.messages + setup.setup_ledger.messages
            msg_ratio = total_msgs / net.m
            ratios.append((round_ratio, msg_ratio))
            headline[n] = (result.rounds, total_msgs)
            rows.append(
                (n, net.m, d, result.rounds, f"{round_ratio:.1f}",
                 total_msgs, f"{msg_ratio:.1f}")
            )
        print_table(
            "Theorem 1.2: PA scaling on general graphs",
            ["n", "m", "D", "solve rounds", "rounds/(D+sqrt n)",
             "total msgs", "msgs/m"],
            rows,
        )
        return ratios, headline

    ratios, headline = experiment()
    # Polylog envelope: the normalized ratios must not grow like a
    # polynomial in n (factor-of-4 n growth allows only polylog ratio drift).
    first_round, first_msg = ratios[0]
    last_round, last_msg = ratios[-1]
    growth = math.log2(SIZES[-1]) ** 2 / math.log2(SIZES[0]) ** 2
    assert last_round <= max(first_round, 1.0) * 8 * growth
    assert last_msg <= max(first_msg, 1.0) * 8 * growth
    largest = SIZES[-1]
    record(rounds=headline[largest][0],
           messages=headline[largest][1],
           round_ratios=[r for r, _ in ratios],
           msg_ratios=[m for _, m in ratios],
           largest_n=largest)
