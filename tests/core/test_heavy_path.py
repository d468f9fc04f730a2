"""Heavy path decomposition: positions, ranks, light-edge bound."""

import math

from repro.congest import CostLedger, Engine
from repro.core import bfs_tree
from repro.core.heavy_path import build_heavy_path_decomposition
from repro.graphs import grid_2d, path_graph
from oracles import balanced_binary_tree, random_tree


def decompose(net, root=0):
    engine = Engine(net)
    ledger = CostLedger()
    tree = bfs_tree(engine, net, root, CostLedger()).tree
    hpd = build_heavy_path_decomposition(engine, tree, ledger)
    return tree, hpd, ledger


def test_path_network_is_one_heavy_path():
    net = path_graph(12)
    tree, hpd, _ = decompose(net)
    assert sum(hpd.path_top) == 1
    assert hpd.position[11] == 1  # deepest node is the bottom
    assert hpd.position[0] == 12
    assert hpd.path_length[5] == 12
    assert hpd.rank[0] == 0


def test_every_node_on_exactly_one_path():
    net = random_tree(60, seed=4)
    tree, hpd, _ = decompose(net)
    # Walking heavy children from each top enumerates every node once.
    seen = set()
    for top in (v for v in range(net.n) if hpd.path_top[v]):
        v = top
        while v >= 0:
            assert v not in seen
            seen.add(v)
            v = hpd.heavy_child[v]
    assert seen == set(range(net.n))


def test_positions_count_from_bottom():
    net = balanced_binary_tree(3)
    tree, hpd, _ = decompose(net)
    for v in range(net.n):
        child = hpd.heavy_child[v]
        if child >= 0:
            assert hpd.position[v] == hpd.position[child] + 1
            assert hpd.path_id[v] == hpd.path_id[child]


def test_light_edges_per_root_path_logarithmic():
    net = random_tree(200, seed=9)
    tree, hpd, _ = decompose(net)
    bound = math.floor(math.log2(net.n)) + 1
    for leaf in range(net.n):
        light = 0
        v = leaf
        while tree.parent[v] >= 0:
            if not hpd.on_heavy_parent_edge[v]:
                light += 1
            v = tree.parent[v]
        assert light <= bound


def test_ranks_respect_feeding_order():
    net = random_tree(120, seed=13)
    tree, hpd, _ = decompose(net)
    # A path's rank exceeds the rank of every path feeding into it.
    for v in range(net.n):
        if hpd.path_top[v] and tree.parent[v] >= 0:
            receiver = tree.parent[v]
            assert hpd.rank[receiver] >= hpd.rank[v] + 1
    top_ranks = [hpd.rank[v] for v in range(net.n) if hpd.path_top[v]]
    assert max(top_ranks) <= math.floor(math.log2(net.n)) + 1


def test_decomposition_cost_linearish():
    net = grid_2d(8, 8)
    _tree, _hpd, ledger = decompose(net)
    assert ledger.messages <= 8 * net.n
