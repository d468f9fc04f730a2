"""E9 (Corollary A.2): O(log n)-approximate connected dominating set.

Paper claim: an O(log n)-approximate minimum CDS at PA-dominated cost.
We report CDS size against the sequential greedy dominating set (its own
O(log n)-approximation anchor) across workloads.
"""

from repro.algorithms import connected_dominating_set
from repro.analysis import greedy_dominating_set_size
from repro.bench import print_table, record
from repro.graphs import (
    grid_2d,
    induces_connected_subgraph,
    is_dominating_set,
    random_connected,
)


def test_cds_quality():
    workloads = {
        "grid 4x10": grid_2d(4, 10),
        "sparse random": random_connected(48, 0.05, seed=32),
        "dense random": random_connected(48, 0.15, seed=33),
    }

    def experiment():
        rows = []
        sizes = {}
        costs = {}
        for label, net in workloads.items():
            run = connected_dominating_set(net, seed=34)
            cds = set(run.output)
            assert is_dominating_set(net, cds)
            assert induces_connected_subgraph(net, cds)
            greedy = greedy_dominating_set_size(net)
            sizes[label] = (len(cds), greedy)
            costs[label] = (run.rounds, run.messages)
            rows.append(
                (label, net.n, len(cds), greedy,
                 f"{len(cds) / greedy:.2f}", run.rounds, run.messages)
            )
        print_table(
            "Corollary A.2: CDS size vs greedy dominating-set anchor",
            ["graph", "n", "CDS size", "greedy DS", "CDS/DS",
             "rounds", "messages"],
            rows,
        )
        return sizes, costs

    sizes, costs = experiment()
    for label, (cds_size, greedy) in sizes.items():
        assert cds_size <= 3 * greedy + 2, label
    record(sizes={k: v[0] for k, v in sizes.items()},
           rounds=costs["grid 4x10"][0], messages=costs["grid 4x10"][1])
