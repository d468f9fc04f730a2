"""E12 (Figure 5 / Lemma 6.6): Algorithm 7's round bound on paths.

Paper claim: the doubling construction finishes in O(c log D + D) rounds
with per-edge congestion O(c log D).  We sweep the path length and the
congestion budget and compare measured rounds against the envelope.
"""

import math

from repro.bench import print_table, record
from repro.congest import CostLedger, Engine
from repro.core import bfs_tree
from repro.core.heavy_path import build_heavy_path_decomposition
from repro.core.path_shortcut import run_path_doubling_wave
from repro.graphs import path_graph


def test_alg7_round_envelope():
    def experiment():
        rows = []
        data = []
        for n, threshold in ((32, 2), (64, 2), (64, 6), (128, 4)):
            net = path_graph(n)
            engine = Engine(net)
            tree = bfs_tree(engine, net, 0, CostLedger()).tree
            hpd = build_heavy_path_decomposition(engine, tree, CostLedger())
            tops = [v for v in range(n) if hpd.path_top[v]]
            store = {v: {v % (2 * threshold)} for v in range(n // 2, n)}
            ledger = CostLedger()
            run_path_doubling_wave(
                engine, tree, hpd, tops, store, threshold, ledger, "bench"
            )
            rounds = sum(p.rounds for p in ledger.phases())
            messages = sum(p.messages for p in ledger.phases())
            envelope = 2 * (
                2 * threshold * math.ceil(math.log2(n)) + n
            ) + 16
            data.append((rounds, envelope, messages))
            rows.append((n, threshold, rounds, envelope, messages))
        print_table(
            "Algorithm 7: measured rounds vs O(c log D + D) envelope",
            ["path length", "c", "rounds", "envelope", "messages"],
            rows,
        )
        return data

    data = experiment()
    for rounds, envelope, _messages in data:
        assert rounds <= envelope
    record(pairs=[(r, e) for r, e, _m in data],
           rounds=data[-1][0], messages=data[-1][2])
