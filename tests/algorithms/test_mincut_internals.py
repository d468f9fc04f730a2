"""Min-cut building blocks: intervals, LCA routing, cut convergecast."""

import hashlib

import pytest

from repro import PASession
from repro.algorithms import approx_min_cut
from repro.congest import CostLedger, Engine
from repro.core import ABSENT, ROOT, PASolver, RootedForest
from repro.algorithms.mincut import (
    _IntervalProgram,
    _LcaRouteProgram,
    _one_respecting_min_cut,
)
from repro.analysis import cut_weight, stoer_wagner_min_cut, kruskal_mst
from repro.graphs import (
    grid_2d,
    path_graph,
    random_regular,
    with_distinct_weights,
    with_planted_cut,
)

from oracles import ENGINE_OF


def test_interval_labels_are_preorder(grid4x6):
    from repro.core import bfs_tree

    engine = Engine(grid4x6)
    tree = bfs_tree(engine, grid4x6, 0, CostLedger()).tree
    program = _IntervalProgram(tree)
    engine.run(program, max_ticks=4 * tree.height() + 8)
    # Root spans everything; children partition the parent interval.
    assert program.interval[0] == (0, grid4x6.n - 1)
    for v in range(grid4x6.n):
        lo, hi = program.interval[v]
        assert hi - lo + 1 == program.size[v]
        for c in tree.children[v]:
            clo, chi = program.interval[c]
            assert lo < clo and chi <= hi


def test_lca_routing_accumulates_at_ancestor():
    net = grid_2d(2, 4)  # nodes 0..3 top row, 4..7 bottom
    from repro.core import bfs_tree

    engine = Engine(net)
    tree = bfs_tree(engine, net, 0, CostLedger()).tree
    intervals = _IntervalProgram(tree)
    engine.run(intervals, max_ticks=30)
    # Route a single non-tree edge and check its weight lands on a common
    # ancestor of both endpoints.
    non_tree = None
    tree_edges = {(v, tree.parent[v]) for v in range(net.n) if tree.parent[v] >= 0}
    canon = {tuple(sorted(e)) for e in tree_edges}
    for e in net.edges:
        if e not in canon:
            non_tree = e
            break
    x, y = non_tree
    router = _LcaRouteProgram(
        tree, intervals.interval, [(x, intervals.interval[y][0], 7)]
    )
    engine.run(router, max_ticks=40)
    holders = [v for v in range(net.n) if router.lca_weight[v] == 7]
    assert len(holders) == 1
    lca = holders[0]
    lo, hi = intervals.interval[lca]
    assert lo <= intervals.interval[x][0] <= hi
    assert lo <= intervals.interval[y][0] <= hi


def test_one_respecting_cut_matches_bruteforce_on_path():
    net = with_distinct_weights(path_graph(12), seed=31)
    tree_edges = set(net.edges)  # a path IS its own spanning tree
    engine = Engine(net)
    value, node = _one_respecting_min_cut(net, tree_edges, engine, CostLedger())
    # On a tree, the min cut is simply the lightest edge.
    assert value == min(net.weights.values())


def test_one_respecting_cut_value_is_real_cut(weighted_random):
    tree_edges = kruskal_mst(weighted_random)
    engine = Engine(weighted_random)
    value, node = _one_respecting_min_cut(
        weighted_random, tree_edges, engine, CostLedger()
    )
    from repro.algorithms.sssp import _root_tree_at

    tree = _root_tree_at(weighted_random, tree_edges, 0)
    side = set(tree.subtree_nodes(node))
    assert cut_weight(weighted_random, side) == value
    assert value >= stoer_wagner_min_cut(weighted_random)


#: graph -> (cut value, phases, rounds, messages, SHA-256 of the phase log),
#: captured on the commit before the cut-value convergecast became a
#: ``treeops.run_convergecast`` over SUM_TUPLE (PR 19); one literal for
#: both engines — on the array engine that phase is now a kernel.
#: Recaptured when a setup began to learn its route (PR 20: the packing's
#: Boruvka phases make three solves a setup, two of them routed now, and
#: a later phase's neighbor exchange charges relabelled nodes only) and when a
#: learning solve began to replay on its forest and a build to return its
#: last verified candidate (PR 21: every phase's fresh prepare loses one
#: ``annotate_blocks``, every first solve's ``_replay`` runs at the forest
#: size) and when the packing's Boruvka phases began to join by rank
#: (PR 23: about half the phases, one solve fewer in each) and when every
#: packing began to run on the session min-cut holds, its BFS tree charged
#: once under ``tree:`` (PR 24: a bare session used to build a private
#: session, tree and leader election per packing) and when flood-min and
#: claim BFS stopped handing a token back to the neighbors that had just
#: delivered it (only ``leader_election`` and the ``subpart_*`` claim
#: phases fell) and when the token wave began to hand a token on in the
#: tick a node gains it and never back to a neighbor that sent it (only
#: ``*_wave`` / ``*_reverse`` / ``*_replay`` moved) and when a reused
#: solve became one all-reduce on its forest (each routed solve's
#: ``*_reverse`` / ``*_replay`` pair became one ``*_allreduce``: the
#: pair's messages, fewer rounds) and when only self-sampled candidates
#: began to start the election's flood (``tree:leader_election`` fell;
#: the candidate draw comes first off the solver's random stream and the
#: tree's root moved, so every randomized draw and the diameter estimate
#: after it moved too) and when the neighbor exchange of every phase after
#: the first became the session's engine-run ``part_exchange`` (a
#: relabelled node tells only its neighbors outside its old fragment: only
#: that phase moved, in messages) and when a fresh build's last
#: verification became its setup's first solve (each first ``moe`` solve
#: on a verified setup runs one ``*_allreduce`` at twice its old replay's
#: messages instead of wave, reversal and replay; every other phase
#: equal); cut values equal, CHANGES lists old -> new.
MINCUT_PINS = {
    "grid6x7": (
        lambda: with_distinct_weights(grid_2d(6, 7), seed=4),
        (32, 279, 1370, 10406,
         "c158650401418146585285c62331b14838b80a4f33851737d40d26764ac23ec5"),
    ),
    "reg48": (
        lambda: with_distinct_weights(random_regular(48, 4, seed=7), seed=4),
        (75, 246, 1080, 12562,
         "c3e0b42e9776a6b3c7cd9b12cca1abe81fbafb3777bf76c24c1b13403c9928bb"),
    ),
}


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("graph", MINCUT_PINS)
def test_approx_min_cut_ledger_is_the_parents(graph, impl):
    make, expected = MINCUT_PINS[graph]
    net = make()
    session = PASession(
        net, solver=PASolver(net, seed=3, engine=ENGINE_OF[impl](net))
    )
    result = approx_min_cut(
        net, epsilon=1.0, seed=3, max_trees=3, session=session
    )
    phases = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in result.ledger.phases()
    ]
    assert (
        result.output[0], len(phases), result.rounds, result.messages,
        hashlib.sha256(repr(phases).encode()).hexdigest(),
    ) == expected


@pytest.mark.parametrize("flags", [{}, {"reuse": True, "batch": True}],
                         ids=["bare", "reuse+batch"])
def test_approx_min_cut_charges_its_tree_once(flags):
    """Every packing runs on the one session: its BFS tree is in the
    ledger once, not once more per packed tree."""
    net = MINCUT_PINS["grid6x7"][0]()
    session = PASession(net, seed=3, **flags)
    result = approx_min_cut(
        net, epsilon=1.0, seed=3, max_trees=3, session=session
    )
    assert result.meta["trees_packed"] == 3
    assert [
        (p.name, p.rounds, p.messages) for p in result.ledger.phases()
        if "tree:" in p.name
    ] == [
        (f"tree:{p.name}", p.rounds, p.messages)
        for p in session.tree_ledger.phases()
    ]
    assert session.stats.prepares > 0  # the packings ran on this session
