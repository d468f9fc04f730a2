"""Distributed BFS spanning tree construction and leader election.

The paper's pipeline needs a rooted BFS spanning tree ``T`` of the whole
network (Definition 2.2 restricts shortcuts to ``T``'s edges) and a leader.
The paper invokes the deterministic leader election of Kutten et al. [27]
(O~(D) rounds, O~(m) messages); we implement flood-min-ID election
(docs/architecture.md, "Deviations from the paper"), which has the same
round complexity and whose message cost we meter honestly rather than
assume.

Two entry points:

* :func:`bfs_tree` — a BFS tree from a *given* root: exactly O(depth)
  rounds and <= 2m + n messages.
* :func:`elect_leader_and_bfs_tree` — no a-priori root: flood-min election
  followed by a child-ack round; the elected leader is the minimum-uid
  node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..congest.arrays import PayloadColumns
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .treeops import claim_bfs, cross_round, flood_min
from .trees import ABSENT, RootedForest


@dataclass
class SpanningTreeResult:
    """A rooted spanning tree plus the identity of its root/leader."""

    tree: RootedForest
    root: int
    depth: int


def bfs_tree(
    engine: Engine,
    net: Network,
    root: int,
    ledger: CostLedger,
    name: str = "bfs_tree",
) -> SpanningTreeResult:
    """Build a BFS spanning tree from a known root.

    Rounds: tree depth + O(1).  Messages: every node announces its claim on
    each incident edge once (<= 2m) plus one parent ack each (<= n).
    """
    program = claim_bfs(
        engine, net, tokens={root: net.uid[root]}, ledger=ledger, name=name
    )
    if any(program.parent_of[v] == ABSENT for v in range(net.n)):
        raise ValueError("network is disconnected; BFS tree does not span it")
    tree = program.forest()
    return SpanningTreeResult(tree=tree, root=root, depth=tree.height())


def ack_parents(
    engine: Engine, parent_of: Sequence[int], ledger: CostLedger, name: str
) -> None:
    """One round in which every node with a parent tells it "child"."""
    parent = np.asarray(parent_of, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    acks = PayloadColumns([], tag="child", size=child.size)
    cross_round(engine, (child, parent[child], acks), ledger, name=name)


def elect_leader_and_bfs_tree(
    engine: Engine,
    net: Network,
    ledger: CostLedger,
    name: str = "leader_election",
) -> SpanningTreeResult:
    """Elect the min-uid node as leader and build a BFS-like tree at it.

    Flood-min runs to quiescence (O(D) rounds); parent pointers then form a
    tree rooted at the leader along which the minimum uid first arrived.
    A final one-round ack phase informs each parent of its children, after
    which the tree is full node-local knowledge.
    """
    flood = flood_min(engine, net, dict(enumerate(net.uid)), ledger, name=name)
    leader_uid = min(net.uid)
    if set(flood.best) != {leader_uid}:
        raise ValueError("network is disconnected; election did not span it")
    parent_of = flood.parent_of
    ack_parents(engine, parent_of, ledger, "child_ack")

    tree = RootedForest(net, parent_of)
    return SpanningTreeResult(
        tree=tree, root=net.node_of_uid(leader_uid), depth=tree.height()
    )
