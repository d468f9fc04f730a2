"""Approximate single-source shortest paths (Corollary 1.5).

Corollary 1.5 (via Haeupler-Li [18]) trades approximation quality against
cost through a parameter ``beta``: O~((1/beta) * (bD + c)) rounds and
O~(m / beta) messages buy an L^{O(log log n)/log(1/beta)} approximation.
The full Haeupler-Li construction (hierarchical low-diameter decomposition
with PA-traversed zero-weight components) is replaced here
(docs/architecture.md, "Deviations from the paper") by a hybrid with the
same cost/quality tradeoff shape:

1. **Hop-limited Bellman-Ford**: ``h = ceil(1/beta)`` synchronous
   relaxation rounds give exact distances to every node within ``h`` hops
   of the source — cost exactly ``h`` rounds and at most ``h * 2m``
   messages, the 1/beta factor of the corollary.
2. **Tree backbone**: distances along a distributed MST (built with the
   PA pipeline of Corollary 1.3, which is where bD + c enters) are
   computed by a weight-accumulating broadcast; they bound every node's
   estimate, so far-away nodes get tree-stretch estimates instead of
   nothing.

The estimate is the minimum of the two; it never underestimates the true
distance and the measured stretch falls as ``beta`` does, which is the
tradeoff the benchmark (E7) reports.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network, canonical_edge
from ..core.pa import RANDOMIZED
from ..core.trees import ABSENT, ROOT, RootedForest
from ..runtime import PASession, ensure_session
from .mst import minimum_spanning_tree


class _BellmanFordProgram(Program):
    """``h`` rounds of synchronous distance relaxation from the source."""

    name = "sssp_bellman_ford"

    def __init__(self, net: Network, source: int, hops: int) -> None:
        self.net = net
        self.source = source
        self.hops = hops
        self.dist: List[Optional[int]] = [None] * net.n
        self.dist[source] = 0

    def _relax_out(self, ctx: Context, v: int, remaining: int) -> None:
        if remaining <= 0:
            return
        base = self.dist[v]
        for nb in self.net.neighbors[v]:
            ctx.send(v, nb, (base + self.net.weight(v, nb), remaining - 1))

    def on_start(self, ctx: Context) -> None:
        self._relax_out(ctx, self.source, self.hops)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        best = None
        remaining = 0
        for _sender, payload in inbox:
            dist, rem = payload
            if best is None or dist < best:
                best = dist
                remaining = max(remaining, rem)
        if best is not None and (self.dist[node] is None or best < self.dist[node]):
            self.dist[node] = best
            self._relax_out(ctx, node, remaining)


class _TreeDistanceProgram(Program):
    """Accumulate weighted distance from the root down a spanning tree."""

    name = "sssp_tree_distance"

    def __init__(self, net: Network, tree: RootedForest, root: int) -> None:
        self.net = net
        self.tree = tree
        self.root = root
        self.dist: List[Optional[int]] = [None] * net.n
        self.dist[root] = 0

    def on_start(self, ctx: Context) -> None:
        for child in self.tree.children[self.root]:
            ctx.send(self.root, child, self.net.weight(self.root, child))

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, dist in inbox:
            self.dist[node] = dist
            for child in self.tree.children[node]:
                ctx.send(node, child, dist + self.net.weight(node, child))


def _root_tree_at(net: Network, edges: Set[Tuple[int, int]], root: int) -> RootedForest:
    """Orient an edge set (a spanning tree) away from ``root``."""
    adj: List[List[int]] = [[] for _ in range(net.n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [ABSENT] * net.n
    parent[root] = ROOT
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if parent[y] == ABSENT:
                parent[y] = x
                stack.append(y)
    return RootedForest(net, parent)


def approx_sssp(
    net: Network,
    source: int,
    beta: float = 0.1,
    mode: str = RANDOMIZED,
    seed: int = 0,
    tree_edges: Optional[Set[Tuple[int, int]]] = None,
    session: Optional[PASession] = None,
) -> RunResult:
    """Approximate SSSP: every node learns ``dv >= d(s, v)``.

    ``beta`` controls the tradeoff: the Bellman-Ford horizon is
    ``ceil(1/beta)`` hops.  ``tree_edges`` lets callers amortize one MST
    across many sources; otherwise the MST is built (and charged) here —
    through ``session``, so its Boruvka phases coarsen when the
    session opts in.
    """
    if net.weights is None:
        raise ValueError("SSSP requires a weighted network")
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")

    if tree_edges is None:
        mst = minimum_spanning_tree(net, mode=mode, seed=seed, session=session)
        # The MST's ledger opens with the shared tree, charged above.
        for stats in mst.ledger.phases():
            if not stats.name.startswith("tree:"):
                ledger.record(replace(stats, name=f"mst:{stats.name}"))
        tree_edges = set(mst.output)

    hops = max(1, math.ceil(1.0 / beta))
    bf = _BellmanFordProgram(net, source, hops)
    ledger.charge(solver.engine.run(bf, max_ticks=hops + 2))

    backbone = _root_tree_at(net, tree_edges, source)
    td = _TreeDistanceProgram(net, backbone, source)
    ledger.charge(solver.engine.run(td, max_ticks=backbone.height() + 3))

    estimates: List[int] = [0] * net.n
    for v in range(net.n):
        candidates = [
            d for d in (bf.dist[v], td.dist[v]) if d is not None
        ]
        if not candidates:
            raise RuntimeError(f"node {v} unreachable from source {source}")
        estimates[v] = min(candidates)
    return RunResult(
        output=estimates,
        ledger=ledger,
        meta={"hops": hops, "tree_depth": backbone.height()},
    )
