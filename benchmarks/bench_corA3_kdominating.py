"""E10 (Corollary A.3): k-dominating sets of size O(n/k).

Paper claim: a k-dominating set of cardinality at most 6n/k in
O~(D + sqrt n) rounds, independent of k.  We sweep k and report size and
realized radius.
"""

from repro.algorithms import k_dominating_set
from repro.bench import print_table, record
from repro.graphs import grid_2d, is_k_dominating_set


def test_kdominating_sweep():
    net = grid_2d(5, 16)

    def experiment():
        rows = []
        sizes = {}
        for k in (4, 8, 16, 32):
            run = k_dominating_set(net, k, seed=35)
            centers = set(run.output)
            assert is_k_dominating_set(net, centers, k)
            bound = max(1, 6 * net.n // k) + 1
            sizes[k] = (len(centers), bound, run.rounds, run.messages)
            rows.append((k, len(centers), bound, run.rounds, run.messages))
        print_table(
            "Corollary A.3: k-dominating set size vs 6n/k",
            ["k", "centers", "6n/k bound", "rounds", "messages"],
            rows,
        )
        return sizes

    sizes = experiment()
    for k, (size, bound, _rounds, _messages) in sizes.items():
        assert size <= bound, k
    # Size falls as k grows (the O(n/k) shape).
    assert sizes[32][0] < sizes[4][0]
    record(sizes={str(k): v[0] for k, v in sizes.items()},
           rounds=sizes[32][2], messages=sizes[32][3])
