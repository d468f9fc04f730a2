"""(1 + eps)-approximate minimum cut (Corollary 1.4).

Ghaffari-Haeupler [15, Section 5.2]: sample a skeleton (Karger), greedily
pack O(log n) * poly(1/eps) spanning trees (Thorup), and find the single
tree edge whose removal 1-respects an approximately minimum cut; the
communication bottlenecks are the MST computations and PA.

Our rendition (docs/architecture.md, "Deviations from the paper"):

* **Tree packing**: ``k = O(log n / eps^2)`` spanning trees computed with
  the PA-based MST of Corollary 1.3, under load-based weights (each tree
  increments the load of its edges; the next tree avoids loaded edges) —
  the greedy packing at the heart of Thorup's argument.
* **1-respecting cut evaluation** per tree, distributed on the tree
  itself: subtree interval labeling (two passes), one round of endpoint
  interval exchange, LCA routing of each non-tree edge's weight (metered
  climb along the tree), and a final convergecast of
  ``cut(sub(v)) = wdeg(sub(v)) - 2 * w_lca(sub(v))``.
* The best (value, tree edge) over all trees is the answer; the defining
  subtree is broadcast so every node learns its side — the output format
  of Corollary 1.4.

The eps dependence enters through the packing size; rounds for the cut
evaluation are O(depth(T*)) per tree rather than [15]'s sketch-based
O~(D + sqrt n) — flagged in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network, canonical_edge
from ..core.aggregation import SUM_TUPLE
from ..core.pa import RANDOMIZED
from ..core.queued import QueuedProgram
from ..runtime import PASession, ensure_session
from ..core.treeops import run_convergecast
from ..core.trees import RootedForest
from .mst import minimum_spanning_tree
from .sssp import _root_tree_at


class _IntervalProgram(Program):
    """Two tree passes: subtree sizes up, preorder intervals down."""

    name = "mincut_intervals"

    def __init__(self, tree: RootedForest) -> None:
        self.tree = tree
        n = tree.net.n
        self.size: List[int] = [1] * n
        self.interval: List[Tuple[int, int]] = [(0, 0)] * n
        self._pending: List[int] = [
            len(tree.children[v]) for v in range(n)
        ]
        self._child_sizes: List[Dict[int, int]] = [dict() for _ in range(n)]

    def _fire_up(self, ctx: Context, v: int) -> None:
        self.size[v] = 1 + sum(self._child_sizes[v].values())
        parent = self.tree.parent[v]
        if parent >= 0:
            ctx.send(v, parent, ("sz", self.size[v]))
        else:
            self._assign(ctx, v, 0)

    def _assign(self, ctx: Context, v: int, start: int) -> None:
        self.interval[v] = (start, start + self.size[v] - 1)
        offset = start + 1
        for child in self.tree.children[v]:
            ctx.send(v, child, ("iv", offset))
            offset += self._child_sizes[v][child]

    def on_start(self, ctx: Context) -> None:
        for v in range(self.tree.net.n):
            if self._pending[v] == 0 and self.tree.member(v):
                self._fire_up(ctx, v)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for sender, payload in inbox:
            if payload[0] == "sz":
                self._child_sizes[node][sender] = payload[1]
                self._pending[node] -= 1
                if self._pending[node] == 0:
                    self._pending[node] = -1
                    self._fire_up(ctx, node)
            else:
                self._assign(ctx, node, payload[1])


class _LcaRouteProgram(QueuedProgram):
    """Route every non-tree edge's weight up the tree to its LCA.

    Each non-tree edge (x, y) starts at x (its canonical endpoint) and
    climbs parent pointers until reaching the first node whose preorder
    interval contains both endpoints — the LCA — where the weight is
    accumulated into ``lca_weight``.  One packet per edge; climbs are
    metered and share edges under the queue discipline.
    """

    name = "mincut_lca_route"

    def __init__(
        self,
        tree: RootedForest,
        interval: Sequence[Tuple[int, int]],
        packets: List[Tuple[int, int, int]],
    ) -> None:
        """``packets``: (start_node, other_preorder, weight) per non-tree edge."""
        super().__init__(capacity=1)
        self.tree = tree
        self.interval = interval
        self.packets = packets
        self.lca_weight: List[int] = [0] * tree.net.n

    def _route(self, ctx: Context, node: int, other: int, weight: int) -> None:
        lo, hi = self.interval[node]
        if lo <= other <= hi:
            self.lca_weight[node] += weight
            return
        parent = self.tree.parent[node]
        self.enqueue(ctx, node, parent, (0,), ("lc", other, weight))

    def on_start(self, ctx: Context) -> None:
        for start, other, weight in self.packets:
            self._route(ctx, start, other, weight)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, other, weight = payload
            self._route(ctx, node, other, weight)


def _one_respecting_min_cut(
    net: Network,
    tree_edges: Set[Tuple[int, int]],
    engine: Engine,
    ledger: CostLedger,
) -> Tuple[int, int]:
    """Best cut of the form (subtree(v), rest); returns (value, v)."""
    root = 0
    tree = _root_tree_at(net, tree_edges, root)

    intervals = _IntervalProgram(tree)
    ledger.charge(engine.run(intervals, max_ticks=2 * tree.height() + 6))

    # One round: endpoints exchange preorder numbers (2m messages).
    ledger.charge_local("mincut_interval_exchange", rounds=1, messages=2 * net.m)

    packets = []
    for u, v in net.edges:
        if canonical_edge(u, v) in tree_edges:
            continue
        packets.append((u, intervals.interval[v][0], net.weight(u, v)))
    router = _LcaRouteProgram(tree, intervals.interval, packets)
    budget = 16 + 2 * tree.height() + 2 * len(packets)
    ledger.charge(engine.run(router, max_ticks=budget))

    # Tree edges have their LCA at the upper endpoint by construction.
    lca_weight = list(router.lca_weight)
    for v in range(net.n):
        parent = tree.parent[v]
        if parent >= 0:
            lca_weight[parent] += net.weight(v, parent)

    wdeg = [
        sum(net.weight(v, nb) for nb in net.neighbors[v]) for v in range(net.n)
    ]
    # cut(sub(v)) = wdeg(sub(v)) - 2 * w_lca(sub(v)), off one convergecast.
    sums = run_convergecast(
        engine, tree, SUM_TUPLE, list(zip(wdeg, lca_weight)), ledger,
        name="mincut_cut_values",
    ).partial

    best_value: Optional[int] = None
    best_node = -1
    for v in range(net.n):
        if tree.parent[v] < 0:
            continue
        value = sums[v][0] - 2 * sums[v][1]
        if best_value is None or value < best_value:
            best_value = value
            best_node = v
    return best_value, best_node


def approx_min_cut(
    net: Network,
    epsilon: float = 0.5,
    mode: str = RANDOMIZED,
    seed: int = 0,
    max_trees: Optional[int] = None,
    session: Optional[PASession] = None,
) -> RunResult:
    """(1+eps)-approximate min cut; every node learns its side.

    Returns ``output = (cut_value, side)`` where ``side`` is a 0/1 list
    per node (1 = inside the cut-defining subtree).

    The tree-packing loop is k full MST builds over reweighted copies of
    the same topology, all on the one session (given, or made here): they
    share its BFS tree and engine, charged once under ``tree:``, and —
    when the session reuses — one singleton-partition setup (a
    fingerprint cache hit from the second tree on) and per-phase
    coarsening inside each Boruvka run.
    """
    if net.weights is None:
        raise ValueError("min-cut requires a weighted network")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")

    log_n = ceil_log2(net.n)
    k = max(2, math.ceil(log_n / (epsilon * epsilon)))
    if max_trees is not None:
        k = min(k, max_trees)

    loads: Dict[Tuple[int, int], int] = {e: 0 for e in net.edges}
    rank = {e: i for i, e in enumerate(net.edges)}
    best_value: Optional[int] = None
    best_tree: Optional[Set[Tuple[int, int]]] = None
    best_node = -1

    for t in range(k):
        # Greedy packing: prefer lightly loaded edges; normalize by weight
        # so heavy edges absorb more trees (Thorup's fractional packing).
        packed_weights = {
            e: 1 + loads[e] * (net.m + 1) * 64 // max(1, net.weights[e])
            + (rank[e] + t) % (net.m + 1)
            for e in net.edges
        }
        packed = Network(
            net.edges, n=net.n, weights=packed_weights,
        )
        # Same topology and uid permutation, different weights: the
        # session's tree, engine and memoized setups carry over.
        mst = minimum_spanning_tree(
            packed, mode=mode, seed=seed + t, session=session
        )
        # The packing's ledger opens with the shared tree, charged above.
        for stats in mst.ledger.phases():
            if not stats.name.startswith("tree:"):
                ledger.record(replace(stats, name=f"pack{t}:{stats.name}"))
        tree_edges = set(mst.output)
        for e in tree_edges:
            loads[e] += 1

        value, node = _one_respecting_min_cut(
            net, tree_edges, solver.engine, ledger
        )
        if best_value is None or value < best_value:
            best_value = value
            best_tree = tree_edges
            best_node = node

    # Broadcast the winning subtree: nodes below best_node are side 1.
    tree = _root_tree_at(net, best_tree, 0)
    side = [0] * net.n
    for v in tree.subtree_nodes(best_node):
        side[v] = 1
    ledger.charge_local(
        "mincut_side_broadcast", rounds=tree.height() + 1, messages=net.n
    )
    return RunResult(
        output=(best_value, side),
        ledger=ledger,
        meta={"trees_packed": k, "cut_edge_child": best_node},
    )
