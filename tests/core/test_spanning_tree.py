"""BFS tree construction and leader election."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CostLedger, Engine
from repro.core import bfs_tree, elect_leader_and_bfs_tree
from repro.obs import Tracer, explain, render, use_tracer
from repro.graphs import (
    grid_2d,
    path_graph,
    random_connected,
    random_regular,
)
from oracles import ENGINE_OF, random_planar


def test_bfs_tree_depth_is_eccentricity(grid4x6, ledger):
    engine = Engine(grid4x6)
    result = bfs_tree(engine, grid4x6, 0, ledger)
    assert result.depth == grid4x6.eccentricity(0)
    assert len(result.tree.order) == grid4x6.n
    assert result.root == 0


def test_bfs_tree_message_bound(grid4x6, ledger):
    engine = Engine(grid4x6)
    bfs_tree(engine, grid4x6, 0, ledger)
    # Claims cross each edge at most twice plus one ack per node.
    assert ledger.messages <= 2 * grid4x6.m + grid4x6.n


def test_bfs_tree_requires_connectivity(ledger):
    from repro.congest import Network

    net = Network([(0, 1), (2, 3)])
    engine = Engine(net)
    with pytest.raises(ValueError):
        bfs_tree(engine, net, 0, ledger)


def test_election_picks_min_uid(small_random, ledger):
    engine = Engine(small_random)
    result = elect_leader_and_bfs_tree(engine, small_random, ledger)
    expected = small_random.node_of_uid(min(small_random.uid))
    assert result.root == expected
    assert len(result.tree.order) == small_random.n
    # Election tree depth is at most the eccentricity of the leader.
    assert result.depth <= small_random.eccentricity(expected)


#: SHA-256 of ``repr((root, parent pointers))`` of the elected tree,
#: captured on both engines on the commit before flood-min stopped handing
#: a token back to the neighbors that had just delivered it: the skipped
#: sends reached nodes that ignore them, so the tree is the one it was,
#: pointer for pointer.  ``service_grid`` is the service workload's grid.
TREE_DIGESTS = {
    "grid": (
        lambda: grid_2d(20, 30),
        "9637390abf4e967390bd7fd2f971d0005df387b75876de50800e54e7e4b25663",
    ),
    "regular": (
        lambda: random_regular(256, 4, seed=5),
        "3d20dbc1a5aa65160e3ae1f79a3717fdd4bb8ecfe8969e3fed5b0d02f51b1012",
    ),
    "planar": (
        lambda: random_planar(300, seed=9),
        "28f38d0d6d15950166ecb5b966fe54bfd2d11d7d79bdbfcc1646452af07df0b5",
    ),
    "service_grid": (
        lambda: grid_2d(32, 32),
        "19ddf190f28454c56300dbd3df3a8334e3d764bdd8d979c57a6acded712f8189",
    ),
}


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("kind", TREE_DIGESTS)
def test_election_tree_is_the_pinned_one(kind, impl):
    make, digest = TREE_DIGESTS[kind]
    net = make()
    result = elect_leader_and_bfs_tree(
        ENGINE_OF[impl](net), net, CostLedger()
    )
    pinned = repr((result.root, list(result.tree.parent)))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def stood(n, seed):
    """The candidates of ``random.Random(seed)``, by the draw rule."""
    rng = random.Random(seed)
    p = min(1.0, math.log(max(n, 2)) / n)
    while True:
        nodes = [v for v in range(n) if rng.random() < p]
        if nodes:
            return nodes
        p = min(1.0, 2 * p)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 48),
    extra=st.sampled_from([0.0, 0.05, 0.2]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
)
def test_the_candidate_tree_is_a_bfs_tree_of_the_least_candidate(
    n, extra, graph_seed, seed
):
    net = random_connected(n, extra, seed=graph_seed)
    trees = [
        elect_leader_and_bfs_tree(
            ENGINE_OF[impl](net), net, CostLedger(),
            rng=random.Random(seed),
        )
        for impl in ("scalar", "array")
    ]
    scalar, array = trees
    assert (scalar.root, scalar.tree.parent) == (array.root, array.tree.parent)
    root = scalar.root
    assert root == min(stood(n, seed), key=lambda v: net.uid[v])
    depth = net.bfs_depths(root)
    assert scalar.depth == max(depth) == net.eccentricity(root)
    assert all(
        depth[scalar.tree.parent[v]] == depth[v] - 1
        for v in range(n) if v != root
    )


class _Draws:
    """An rng stub that returns the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_an_empty_draw_is_redrawn_at_twice_p_and_reported():
    net = random_connected(10, 0.2, seed=3)
    p = math.log(10) / 10
    # Nobody stands at p; at 2p nodes 3 and 7 do (p <= 0.3 < 2p).
    redraw = [0.3 if v in (3, 7) else 0.99 for v in range(10)]
    tracer = Tracer()
    with use_tracer(tracer):
        result = elect_leader_and_bfs_tree(
            Engine(net), net, CostLedger(), rng=_Draws([0.99] * 10 + redraw)
        )
    assert result.root == min((3, 7), key=lambda v: net.uid[v])
    redraws = [e for e in tracer.events if e["name"] == "tree.redraw"]
    assert [e["args"]["p"] for e in redraws] == [pytest.approx(2 * p)]
    report = explain(tracer.events)
    assert report.degraded == {"election redrawn, no candidate stood": 1}
    assert "election redrawn, no candidate stood" in render(report)


#: SHA-256 of ``repr((root, parent pointers))`` of the tree elected among
#: the candidates of ``random.Random(0)`` on the graphs above.
CANDIDATE_DIGESTS = {
    "grid":
        "0ad405a866115f1d713833a42953c86cf74aec2d09c5fb2b4296acaa636203de",
    "regular":
        "6a0abdb4cc10f8adb98d03c61c0217e09a6542fbe09f97071990f1c8ca3da4fc",
    "planar":
        "c4c1540f805be1261b768d46e8b36127cef0184ecc33dc52e3c836f5a9e0ac9e",
    "service_grid":
        "621325a78366ddc5d74b3cd2deef287cf64662958e40a05187cbb924d8aa5632",
}


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("kind", CANDIDATE_DIGESTS)
def test_candidate_tree_is_the_pinned_one(kind, impl):
    make, _digest = TREE_DIGESTS[kind]
    net = make()
    result = elect_leader_and_bfs_tree(
        ENGINE_OF[impl](net), net, CostLedger(),
        rng=random.Random(0),
    )
    pinned = repr((result.root, list(result.tree.parent)))
    assert hashlib.sha256(pinned.encode()).hexdigest() == CANDIDATE_DIGESTS[kind]


@pytest.mark.parametrize("make", [
    lambda: grid_2d(128, 128), lambda: random_regular(8192, 4, seed=1),
], ids=["grid128x128", "regular8192"])
def test_the_candidate_election_costs_at_most_4_5_m(make):
    net = make()
    ledger = CostLedger()
    elect_leader_and_bfs_tree(Engine(net), net, ledger, rng=random.Random(1))
    assert ledger.by_name()["leader_election"].messages <= 4.5 * net.m
