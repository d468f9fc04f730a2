"""E8 (Corollary A.1): the verification suite at PA-dominated cost.

Paper claim: every Das Sarma et al. verification problem is solvable in
O~(D + sqrt n) rounds and O~(m) messages once PA is.  We run the whole
suite on one workload and report each verifier's cost next to the cost of
its underlying CC-labeling PA call.
"""

import math

from repro.algorithms import (
    verify_bipartiteness,
    verify_connectivity,
    verify_cut,
    verify_cycle_containment,
    verify_spanning_tree,
    verify_st_connectivity,
    verify_st_cut,
)
from repro.analysis import kruskal_mst
from repro.bench import print_table, record
from repro.graphs import random_connected, with_distinct_weights


def test_verification_suite():
    net = with_distinct_weights(random_connected(60, 0.06, seed=23), seed=24)
    tree = list(kruskal_mst(net))
    half = tree[: len(tree) // 2]

    def experiment():
        runs = {
            "connectivity(T)": verify_connectivity(net, tree, seed=25),
            "connectivity(half)": verify_connectivity(net, half, seed=26),
            "s-t connectivity": verify_st_connectivity(net, half, 0, 1, seed=27),
            "spanning tree": verify_spanning_tree(net, tree, seed=28),
            "cycle containment": verify_cycle_containment(
                net, list(net.edges), seed=29
            ),
            "cut": verify_cut(net, tree[:2], seed=30),
            # Every edge at s = 0: the one cut that must separate s from t.
            "s-t cut": verify_st_cut(
                net, [e for e in net.edges if 0 in e], 0, 1, seed=32
            ),
            "bipartiteness(T)": verify_bipartiteness(net, tree, seed=31),
        }
        rows = [
            (name, run.output, run.rounds, run.messages)
            for name, run in runs.items()
        ]
        print_table(
            "Corollary A.1: verification problems (all PA-dominated)",
            ["problem", "verdict", "rounds", "messages"],
            rows,
        )
        return runs

    runs = experiment()
    assert runs["connectivity(T)"].output is True
    assert runs["connectivity(half)"].output is False
    assert runs["spanning tree"].output is True
    assert runs["cycle containment"].output is True
    assert runs["s-t cut"].output is True
    assert runs["bipartiteness(T)"].output is True
    envelope = (net.diameter_estimate() + math.sqrt(net.n)) * math.log2(net.n) ** 2
    for name, run in runs.items():
        if "bipartite" not in name:  # documented deviation: H-diameter term
            assert run.rounds <= 60 * envelope, name
    record(rounds_by_problem={k: v.rounds for k, v in runs.items()},
           rounds=runs["connectivity(T)"].rounds,
           messages=runs["connectivity(T)"].messages)
