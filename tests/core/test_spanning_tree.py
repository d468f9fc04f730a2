"""BFS tree construction and leader election."""

import pytest

from repro.congest import CostLedger, Engine
from repro.core import bfs_tree, elect_leader_and_bfs_tree
from repro.graphs import grid_2d, path_graph, random_connected


def test_bfs_tree_depth_is_eccentricity(grid4x6, ledger):
    engine = Engine(grid4x6)
    result = bfs_tree(engine, grid4x6, 0, ledger)
    assert result.depth == grid4x6.eccentricity(0)
    assert result.tree.size() == grid4x6.n
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
    assert result.tree.size() == small_random.n
    # Election tree depth is at most the eccentricity of the leader.
    assert result.depth <= small_random.eccentricity(expected)
