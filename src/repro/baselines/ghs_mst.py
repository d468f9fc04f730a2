"""GHS-style MST baseline: message-optimal, round-suboptimal.

A synchronous Boruvka in the lineage of Gallager-Humblet-Spira [12]:
fragments maintain spanning trees of their own edges and find minimum
outgoing edges by convergecast *over the fragment tree* — no shortcuts.
Messages stay at O((m + n) log n), but a fragment's tree can reach depth
Theta(n), so rounds degrade to Theta(n log n) on high-diameter fragments.
This is the classic message-frugal point in the tradeoff space that
Corollary 1.3's algorithm dominates (experiment E5).

Merging is the PA-based MST's own rule and function — a star joining by
rank under one public seed (:func:`~repro.core.star_joining.rank_joins`),
which costs the baseline what it costs us: one leader election and one
broadcast per run — so the comparison isolates exactly one variable:
fragment communication via fragment trees vs. via Part-Wise Aggregation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network, canonical_edge
from ..core.aggregation import MIN_TUPLE
from ..core.spanning_tree import elect_leader_and_bfs_tree
from ..core.star_joining import SuperEdge, note_merge_round, rank_joins, spread_seed
from ..core.treeops import BroadcastProgram, ConvergecastProgram
from ..core.trees import ROOT, RootedForest


class _FragmentMergeProgram(Program):
    """Flood-merge joining fragments into their targets (re-root + relabel)."""

    name = "ghs_merge"

    def __init__(
        self,
        net: Network,
        tree_neighbors: Sequence[Sequence[int]],
        joins: Dict[int, Tuple[int, int, int]],
    ) -> None:
        """``joins``: fragment sid -> (u, v, new_comp_uid)."""
        self.net = net
        self.tree_neighbors = tree_neighbors
        self.joins = joins
        self.new_parent: Dict[int, int] = {}
        self.new_comp_uid: Dict[int, int] = {}
        self._visited: Set[int] = set()

    def _flood(self, ctx: Context, node: int, sender: int, comp_uid: int) -> None:
        if node in self._visited:
            return
        self._visited.add(node)
        self.new_parent[node] = sender
        self.new_comp_uid[node] = comp_uid
        for nb in self.tree_neighbors[node]:
            if nb != sender:
                ctx.send(node, nb, ("mg", comp_uid))

    def on_start(self, ctx: Context) -> None:
        for _sid, (u, v, comp_uid) in self.joins.items():
            ctx.send(u, v, ("att",))
            self._flood(ctx, u, v, comp_uid)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for sender, payload in inbox:
            if payload[0] == "att":
                continue
            self._flood(ctx, node, sender, payload[1])


def ghs_mst(net: Network, seed: int = 0) -> RunResult:
    """Synchronous GHS-style MST; returns the edge set, fully metered."""
    if net.weights is None:
        raise ValueError("MST requires a weighted network")
    ledger = CostLedger()
    engine = Engine(net)
    n = net.n
    # The public seed needs a root to draw it: the one global structure
    # the baseline builds, and only for this.
    seed_at = spread_seed(
        engine, elect_leader_and_bfs_tree(engine, net, ledger).tree,
        ledger, "ghs", seed ^ 0x6E5,
    )

    comp: List[int] = list(range(n))         # fragment id = root node
    parent: List[int] = [ROOT] * n            # fragment tree parents
    mst_edges: Set[Tuple[int, int]] = set()

    max_phases = 4 * ceil_log2(n) + 8
    for phase in range(1, max_phases + 1):
        if len(set(comp)) == 1:
            break
        forest = RootedForest(net, parent)

        # Node-local neighbor knowledge refresh.
        ledger.charge_local("ghs_neighbor_exchange", rounds=1, messages=2 * net.m)

        # MOE search by convergecast over each fragment tree; a candidate
        # names the fragment (its root's uid) the far endpoint announced.
        announced = [net.uid[root] for root in comp]
        values: List[Optional[Tuple[int, int, int, int]]] = [None] * n
        for v in range(n):
            best = None
            for nb in net.neighbors[v]:
                if comp[nb] == comp[v]:
                    continue
                cand = (net.weight(v, nb), net.uid[v], net.uid[nb], announced[nb])
                if best is None or cand < best:
                    best = cand
            values[v] = best
        up = ConvergecastProgram(forest, MIN_TUPLE, values)
        up.name = "ghs_moe_convergecast"
        ledger.charge(engine.run(up, max_ticks=forest.height() + 3))

        # MOE broadcast down each fragment tree.
        down = BroadcastProgram(
            forest, {root: ("ctl", up.at_root.get(root)) for root in forest.roots}
        )
        down.name = "ghs_control_broadcast"
        ledger.charge(engine.run(down, max_ticks=forest.height() + 3))

        # Star joining by rank over the MOE edges, on what the members heard.
        chosen: Dict[int, SuperEdge] = {}
        for root in forest.roots:
            moe = up.at_root.get(root)
            if moe is not None:
                v_nb = net.node_of_uid(moe[2])
                chosen[root] = (net.node_of_uid(moe[1]), v_nb, comp[v_nb])
        heard = [down.received[v][1] for v in range(n)]
        joins = {
            root: (u, v_nb, net.uid[target_root])
            for root, (u, v_nb, target_root) in rank_joins(
                engine, ledger, "ghs", phase, seed_at, announced, heard, chosen
            ).items()
        }
        note_merge_round("ghs", phase, len(forest.roots), len(chosen), len(joins))
        mst_edges.update(canonical_edge(u, v_nb) for u, v_nb, _ in joins.values())

        tree_neighbors: List[List[int]] = [
            list(forest.children[v]) for v in range(n)
        ]
        for v in range(n):
            if forest.parent[v] >= 0:
                tree_neighbors[v].append(forest.parent[v])
        merger = _FragmentMergeProgram(net, tree_neighbors, joins)
        ledger.charge(engine.run(merger, max_ticks=n + 4))
        for node, new_parent in merger.new_parent.items():
            parent[node] = new_parent
        for node, comp_uid in merger.new_comp_uid.items():
            comp[node] = net.node_of_uid(comp_uid)

    if len(set(comp)) != 1:
        raise RuntimeError("GHS baseline did not converge")
    if len(mst_edges) != n - 1:
        raise RuntimeError(f"GHS produced {len(mst_edges)} edges")
    return RunResult(
        output=frozenset(mst_edges),
        ledger=ledger,
        meta={"phases": phase},
    )
