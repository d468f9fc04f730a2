"""E7 (Corollary 1.5): SSSP stretch vs beta tradeoff.

Paper claim: smaller beta buys a better approximation at a cost of
O~(1/beta) more rounds and messages.  We sweep beta and report measured
max/mean stretch against Dijkstra, plus the Bellman-Ford round cost.
"""

from repro.algorithms import approx_sssp
from repro.analysis import dijkstra
from repro.bench import print_table, record
from repro.graphs import grid_2d, with_random_weights
from repro.runtime import PASession


def test_sssp_beta_sweep():
    net = with_random_weights(grid_2d(5, 14), max_weight=40, seed=20)
    exact = dijkstra(net, 0)
    session = PASession(net, seed=21)
    from repro.analysis import kruskal_mst

    tree = kruskal_mst(net)  # amortized across the sweep

    def experiment():
        rows = []
        curve = {}
        for beta in (0.5, 0.2, 0.1, 0.05):
            run = approx_sssp(
                net, 0, beta=beta, seed=22, session=session, tree_edges=tree
            )
            stretches = [
                run.output[v] / exact[v]
                for v in range(1, net.n)
                if exact[v] > 0
            ]
            bf = [p for p in run.ledger.phases()
                  if p.name == "sssp_bellman_ford"][0]
            curve[beta] = (max(stretches), bf.rounds, bf.messages)
            rows.append(
                (beta, run.meta["hops"], f"{max(stretches):.3f}",
                 f"{sum(stretches) / len(stretches):.3f}",
                 bf.rounds, bf.messages)
            )
        print_table(
            "Corollary 1.5: SSSP stretch vs beta",
            ["beta", "BF hops", "max stretch", "mean stretch",
             "BF rounds", "BF messages"],
            rows,
        )
        return curve

    curve = experiment()
    assert curve[0.05][0] <= curve[0.5][0] + 1e-9  # stretch improves
    assert curve[0.05][1] > curve[0.5][1]          # rounds grow ~1/beta
    assert all(v >= 1.0 - 1e-9 for v, _r, _m in curve.values())
    record(stretches={str(k): v[0] for k, v in curve.items()},
           rounds=curve[0.05][1], messages=curve[0.05][2])
