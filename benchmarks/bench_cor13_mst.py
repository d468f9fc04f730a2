"""E5 (Corollary 1.3): MST — simultaneous round/message competitiveness.

Paper claim: our MST is simultaneously round- and message-optimal; GHS-
style baselines are message-optimal but pay Theta(n)-type rounds on
high-diameter fragments.  The crossover curve: the bare default session,
the reuse+batch session and the GHS comparator — all three joining by the
same rule, a star joining by rank under one public seed — on grids,
random 4-regular graphs and the dagger instance (an apex over a grid
whose row edges are the light ones: every fragment a long path in a
graph of diameter 8), three sizes each, against D + sqrt n and m.  Every
run is checked against Kruskal; what the table shows is asserted as it
stands, so the experiment can be lost.
"""

import math

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.baselines import ghs_mst
from repro.bench import print_table, record
from repro.congest import ceil_log2
from repro.graphs import (
    grid_2d,
    grid_node,
    grid_with_apex,
    random_regular,
    with_distinct_weights,
    with_light_edges,
)


def _dagger(rows, cols):
    """``grid_with_apex`` with the row edges ranked below all others."""
    row_edges = [
        (grid_node(r, c, cols), grid_node(r, c + 1, cols))
        for r in range(rows) for c in range(cols - 1)
    ]
    return with_light_edges(grid_with_apex(rows, cols), row_edges, seed=15)


INSTANCES = [
    ("grid 2x40", lambda: with_distinct_weights(grid_2d(2, 40), seed=15)),
    ("grid 16x32", lambda: with_distinct_weights(grid_2d(16, 32), seed=15)),
    ("grid 4x256", lambda: with_distinct_weights(grid_2d(4, 256), seed=15)),
    ("4-regular 128",
     lambda: with_distinct_weights(random_regular(128, 4, seed=15), seed=15)),
    ("4-regular 512",
     lambda: with_distinct_weights(random_regular(512, 4, seed=15), seed=15)),
    ("4-regular 2048",
     lambda: with_distinct_weights(random_regular(2048, 4, seed=15), seed=15)),
    ("apex 4x16 †", lambda: _dagger(4, 16)),
    ("apex 4x64 †", lambda: _dagger(4, 64)),
    ("apex 4x256 †", lambda: _dagger(4, 256)),
]


def test_mst_tradeoff():
    def experiment():
        rows = []
        data = {}
        for label, make in INSTANCES:
            net = make()
            ref = kruskal_mst(net)
            bare_session = PASession(net, seed=17)
            bare = minimum_spanning_tree(net, seed=17, session=bare_session)
            ours = minimum_spanning_tree(
                net, seed=17,
                session=PASession(net, seed=17, reuse=True, batch=True),
            )
            ghs = ghs_mst(net, seed=18)
            assert set(bare.output) == set(ours.output) == set(ghs.output) == ref
            envelope = bare_session.solver.tree_result.depth + math.isqrt(
                net.n - 1
            ) + 1
            data[label] = (net, bare, ours, ghs)
            rows.append((
                label, net.n, envelope, net.m,
                f"{bare.meta['phases']} / {ours.meta['phases']} / "
                f"{ghs.meta['phases']}",
                f"{bare.rounds} / {bare.messages}",
                f"{ours.rounds} / {ours.messages}",
                f"{ghs.rounds} / {ghs.messages}",
            ))
        print_table(
            "Corollary 1.3: the MST crossover curve — rounds / messages, "
            "bare and reuse+batch sessions vs the GHS baseline",
            ["graph", "n", "depth+ceil(sqrt n)", "m", "phases b / r / G",
             "bare", "reuse+batch", "GHS"],
            rows,
        )
        return data

    data = experiment()
    for label, (net, bare, ours, ghs) in data.items():
        # One rule, three loops: O(log n) star-joining rounds each.
        for run in (bare, ours, ghs):
            assert run.meta["phases"] <= 2 * ceil_log2(net.n), label
        # What the table shows today: the baseline is cheaper than both
        # sessions in messages on every row, and in rounds on every row
        # but two ...
        assert ghs.messages < min(bare.messages, ours.messages), label
        if label == "4-regular 2048":
            # ... where reuse+batch, whose reused solves each run one
            # all-reduce on the remembered forest, is the first PA-MST
            # of the table to beat GHS in either currency ...
            assert ours.rounds < ghs.rounds < bare.rounds, label
        elif label == "apex 4x256 †":
            # ... and the dagger instance at the largest size, where the
            # bare session, whose fresh builds' verifications are their
            # setups' first solves, beats GHS in rounds; reuse+batch —
            # which floods inside the fragment too (ROADMAP item 1(f)) and
            # never verifies — does not ...
            assert bare.rounds < ghs.rounds < ours.rounds, label
        else:
            assert ghs.rounds < min(bare.rounds, ours.rounds), label
    # ... though GHS pays rounds well above the diameter on deep
    # fragments; and on that dagger row reuse+batch is slower in rounds
    # than the bare session that rebuilds its shortcuts.
    net, bare, ours, ghs = data["grid 2x40"]
    assert ghs.rounds > 2 * net.exact_diameter()
    _net, dagger_bare, dagger_ours, dagger_ghs = data["apex 4x256 †"]
    assert dagger_bare.rounds < dagger_ghs.rounds < dagger_ours.rounds
    record(ours_rounds=bare.rounds, ghs_rounds=ghs.rounds,
           ours_msgs=bare.messages, ghs_msgs=ghs.messages,
           rounds=bare.rounds, messages=bare.messages)
