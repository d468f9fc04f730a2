"""BFS tree construction and leader election."""

import hashlib

import pytest

from repro.congest import CostLedger, Engine
from repro.core import bfs_tree, elect_leader_and_bfs_tree
from repro.graphs import (
    grid_2d,
    path_graph,
    random_connected,
    random_planar,
    random_regular,
)


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


@pytest.mark.parametrize("use_arrays", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("kind", TREE_DIGESTS)
def test_election_tree_is_the_pinned_one(kind, use_arrays):
    make, digest = TREE_DIGESTS[kind]
    net = make()
    result = elect_leader_and_bfs_tree(
        Engine(net, use_arrays=use_arrays), net, CostLedger()
    )
    pinned = repr((result.root, list(result.tree.parent)))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest
