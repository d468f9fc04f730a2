"""Distributed BFS spanning tree construction and leader election.

The paper's pipeline needs a rooted BFS spanning tree ``T`` of the whole
network (Definition 2.2 restricts shortcuts to ``T``'s edges) and a leader.
The paper invokes the leader election of Kutten et al. [27] (O~(D) rounds,
O~(m) messages); we implement its candidate form over flood-min
(docs/architecture.md, "Deviations from the paper"): each node samples
itself a candidate with probability ln n / n, only the candidates flood
their uids, and the least candidate wins.  A node then adopts a smaller
token O(log log n) times in expectation instead of about ln n, and the
message cost is metered honestly rather than assumed.

Two entry points:

* :func:`bfs_tree` — a BFS tree from a *given* root: exactly O(depth)
  rounds and <= 2m + n messages.
* :func:`elect_leader_and_bfs_tree` — no a-priori root: a flood-min
  election among the candidates followed by a child-ack round; the
  elected leader is the minimum-uid candidate (every node stands when no
  random source is given).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..congest.arrays import PayloadColumns
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..obs.tracer import current_tracer
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


def _draw_candidates(net: Network, rng: random.Random) -> Dict[int, int]:
    """Node -> uid of the nodes that sample themselves candidates.

    Node ``v`` stands iff the ``v``-th ``rng.random()`` is below
    ``p = min(1, ln n / n)`` (``ln n`` read as ``ln max(n, 2)``), so about
    ``ln n`` nodes stand.  If none did (probability about ``1 / n``), ``p``
    doubles and every node draws again from the same stream; each redraw
    is a ``tree.redraw`` trace instant carrying its ``p``.  The nodes learn
    of the empty draw for free here; a node that knows ``n`` would time
    out after ``n`` silent rounds instead.
    """
    p = min(1.0, math.log(max(net.n, 2)) / net.n)
    while True:
        stood = [v for v in range(net.n) if rng.random() < p]
        if stood:
            return {v: net.uid[v] for v in stood}
        p = min(1.0, 2 * p)
        current_tracer().instant("tree.redraw", "tree", {"p": p})


def elect_leader_and_bfs_tree(
    engine: Engine,
    net: Network,
    ledger: CostLedger,
    name: str = "leader_election",
    rng: Optional[random.Random] = None,
) -> SpanningTreeResult:
    """Elect the least-uid candidate as leader and build a BFS tree at it.

    With ``rng`` the candidates are :func:`_draw_candidates`' (the draw
    comes first off ``rng``); without it every node stands.  Only the
    candidates start the flood-min, which runs to quiescence (O(D)
    rounds).  The winner's token is adopted wherever it arrives, so it
    travels unimpeded and the parent pointers form a BFS tree rooted at
    the leader along which it first arrived.  A final one-round ack phase
    informs each parent of its children, after which the tree is full
    node-local knowledge.
    """
    tokens = (
        dict(enumerate(net.uid)) if rng is None else _draw_candidates(net, rng)
    )
    flood = flood_min(engine, net, tokens, ledger, name=name)
    leader_uid = min(tokens.values())
    if set(flood.best) != {leader_uid}:
        raise ValueError("network is disconnected; election did not span it")
    parent_of = flood.parent_of
    ack_parents(engine, parent_of, ledger, "child_ack")

    tree = RootedForest(net, parent_of)
    return SpanningTreeResult(
        tree=tree, root=net.node_of_uid(leader_uid), depth=tree.height()
    )
