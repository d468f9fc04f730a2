"""The prior shortcut-based PA algorithm (Section 3.1's bad example).

Round-optimal randomized PA algorithms before this paper [19, 20]
aggregate *within blocks*: every node transmits its value up the block
(along tree edges); values of the same part merge when they meet, and the
block root computes and rebroadcasts the result.  Section 3.1 shows this
needs Omega(nD) messages on the apex-grid (Figure 2a), because values of
the same part sit in different columns and cannot combine before reaching
the apex.

This module implements that algorithm faithfully: every node (not just a
representative — there are no sub-part divisions here) injects its value
into the BFS tree; each node forwards one (part, value) packet per round
per edge, merging same-part packets that meet in its buffer; the root's
per-part aggregates retrace the recorded traffic downward.  Benchmarks
compare its message count against the paper's sub-part PA ("Figure 2 /
Section 3.1" in EXPERIMENTS.md; the other substitutions this repo makes
are tabulated in docs/architecture.md, "Deviations from the paper").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network
from ..graphs.partitions import Partition
from ..core.aggregation import Aggregation
from ..core.spanning_tree import bfs_tree, elect_leader_and_bfs_tree
from ..core.trees import ROOT, RootedForest


class _BlockUpProgram(Program):
    """Everyone climbs: one (part, value) per edge per round, merging."""

    name = "naive_block_up"

    def __init__(
        self,
        tree: RootedForest,
        partition: Partition,
        values: Sequence[object],
        agg: Aggregation,
    ) -> None:
        self.tree = tree
        self.partition = partition
        self.agg = agg
        n = tree.net.n
        #: per node: part -> pending merged value waiting for the up edge
        self.pending: List[Dict[int, object]] = [dict() for _ in range(n)]
        #: per node: parts whose traffic crossed the node's parent edge
        self.sent_parts: List[Set[int]] = [set() for _ in range(n)]
        self.at_root: Dict[int, object] = {}
        self._values = values

    def _absorb(self, node: int, pid: int, value: object) -> None:
        root_here = self.tree.parent[node] == ROOT
        if root_here:
            self.at_root[pid] = self.agg.merge(self.at_root.get(pid), value)
        else:
            store = self.pending[node]
            store[pid] = self.agg.merge(store.get(pid), value)

    def _pump(self, ctx: Context, node: int) -> None:
        store = self.pending[node]
        if not store:
            return
        pid = min(store)
        value = store.pop(pid)
        parent = self.tree.parent[node]
        self.sent_parts[node].add(pid)
        ctx.send(node, parent, (pid, value))
        if store:
            ctx.wake(node)

    def on_start(self, ctx: Context) -> None:
        for v in range(self.tree.net.n):
            value = self._values[v]
            if value is not None:
                self._absorb(v, self.partition.part_of[v], value)
            if self.pending[v]:
                ctx.wake(v)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            pid, value = payload
            self._absorb(node, pid, value)
        self._pump(ctx, node)


class _BlockDownProgram(Program):
    """Retrace recorded per-part traffic downward with the results."""

    name = "naive_block_down"

    def __init__(
        self,
        tree: RootedForest,
        sent_parts: Sequence[Set[int]],
        results: Dict[int, object],
    ) -> None:
        self.tree = tree
        self.results = results
        n = tree.net.n
        #: per node: child -> parts to deliver down that edge
        self.down_parts: List[Dict[int, List[int]]] = [dict() for _ in range(n)]
        for v in range(n):
            parent = tree.parent[v]
            if parent >= 0 and sent_parts[v]:
                self.down_parts[parent][v] = sorted(sent_parts[v])
        self.delivered: List[Dict[int, object]] = [dict() for _ in range(n)]
        #: per (node, child): send queue
        self._queues: Dict[Tuple[int, int], List[int]] = {}

    def _load(self, ctx: Context, node: int) -> None:
        for child, pids in self.down_parts[node].items():
            self._queues[(node, child)] = list(pids)
        if self.down_parts[node]:
            ctx.wake(node)

    def _pump(self, ctx: Context, node: int) -> None:
        more = False
        for child in self.down_parts[node]:
            queue = self._queues.get((node, child))
            if queue:
                pid = queue.pop(0)
                ctx.send(node, child, (pid, self.results[pid]))
                if queue:
                    more = True
        if more:
            ctx.wake(node)

    def on_start(self, ctx: Context) -> None:
        for root in self.tree.roots:
            self._load(ctx, root)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            pid, value = payload
            if pid not in self.delivered[node]:
                self.delivered[node][pid] = value
                self._load_child_parts(ctx, node, pid)
        self._pump(ctx, node)

    def _load_child_parts(self, ctx: Context, node: int, pid: int) -> None:
        for child, pids in self.down_parts[node].items():
            if pid in pids:
                queue = self._queues.setdefault((node, child), [])
                if pid not in queue:
                    queue.append(pid)
                    ctx.wake(node)


def block_aggregation_pa(
    net: Network,
    partition: Partition,
    values: Sequence[object],
    agg: Aggregation,
    root: Optional[int] = None,
    seed: int = 0,
) -> RunResult:
    """Run the prior block-aggregation PA; returns per-part aggregates.

    The ledger meters BFS-tree construction, the all-nodes up phase and the
    retraced down phase.  Per-node results land in
    ``result.meta["value_at_node"]``.
    """
    ledger = CostLedger()
    engine = Engine(net)
    if root is None:
        tree_result = elect_leader_and_bfs_tree(engine, net, ledger)
    else:
        tree_result = bfs_tree(engine, net, root, ledger)
    tree = tree_result.tree

    up = _BlockUpProgram(tree, partition, values, agg)
    budget = 16 + 4 * (tree.height() + partition.num_parts) + net.n
    ledger.charge(engine.run(up, max_ticks=budget))

    down = _BlockDownProgram(tree, up.sent_parts, up.at_root)
    ledger.charge(engine.run(down, max_ticks=budget))

    value_at_node: List[object] = [None] * net.n
    for v in range(net.n):
        pid = partition.part_of[v]
        if pid in down.delivered[v]:
            value_at_node[v] = down.delivered[v][pid]
        elif pid in up.at_root and v == tree.roots[0]:
            value_at_node[v] = up.at_root[pid]
    return RunResult(
        output=dict(up.at_root),
        ledger=ledger,
        meta={"value_at_node": value_at_node, "tree_depth": tree.height()},
    )
