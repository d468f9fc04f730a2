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
which costs the baseline what it costs us: one leader election among
candidates drawn from its seed and one broadcast per run — so the
comparison isolates exactly one variable:
fragment communication via fragment trees vs. via Part-Wise Aggregation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..congest.engine import Engine
from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network, canonical_edge
from ..core.aggregation import MIN_TUPLE
from ..core.spanning_tree import elect_leader_and_bfs_tree
from ..core.star_joining import SuperEdge, note_merge_round, rank_joins, spread_seed
from ..core.treeops import (
    MergeFloodProgram,
    announce_labels,
    run_broadcast,
    run_convergecast,
)
from ..core.trees import ROOT, RootedForest


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
        engine,
        elect_leader_and_bfs_tree(
            engine, net, ledger, rng=random.Random(seed)
        ).tree,
        ledger, "ghs", seed ^ 0x6E5,
    )

    comp: List[int] = list(range(n))         # fragment id = root node
    parent: List[int] = [ROOT] * n            # fragment tree parents
    mst_edges: Set[Tuple[int, int]] = set()

    max_phases = 4 * ceil_log2(n) + 8
    # Who relabelled in the last merge, and the fragments it merged.
    relabelled: Optional[np.ndarray] = None
    old_comp: Optional[np.ndarray] = None
    for phase in range(1, max_phases + 1):
        if len(set(comp)) == 1:
            break
        forest = RootedForest(net, parent)

        # Neighbor knowledge: every node tells every neighbor its fragment
        # id once; after that only the relabelled nodes speak, and only to
        # neighbors outside their old fragment (``ghs_merge`` told the
        # rest) — the session's part-exchange rule.
        announce_labels(
            engine, net, net.array_views.uid[comp], ledger,
            "ghs_neighbor_exchange", changed=relabelled, old_part=old_comp,
        )

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
        up = run_convergecast(
            engine, forest, MIN_TUPLE, values, ledger, "ghs_moe_convergecast"
        )

        # MOE broadcast down each fragment tree.
        down = run_broadcast(
            engine, forest,
            {root: up.at_root.get(root) for root in forest.roots},
            ledger, "ghs_control_broadcast",
        )

        # Star joining by rank over the MOE edges, on what the members heard.
        chosen: Dict[int, SuperEdge] = {}
        for root in forest.roots:
            moe = up.at_root.get(root)
            if moe is not None:
                v_nb = net.node_of_uid(moe[2])
                chosen[root] = (net.node_of_uid(moe[1]), v_nb, comp[v_nb])
        heard = [down.received[v] for v in range(n)]
        joins = {
            root: (u, v_nb, (net.uid[target_root],))
            for root, (u, v_nb, target_root) in rank_joins(
                engine, ledger, "ghs", phase, seed_at, announced, heard, chosen
            ).items()
        }
        note_merge_round("ghs", phase, len(forest.roots), len(chosen), len(joins))
        mst_edges.update(canonical_edge(u, v_nb) for u, v_nb, _ in joins.values())

        merger = MergeFloodProgram(forest, joins, name="ghs_merge")
        ledger.charge(engine.run(merger, max_ticks=n + 4))
        for node, new_parent in merger.new_parent.items():
            parent[node] = new_parent
        old_comp = np.asarray(comp, dtype=np.int64)
        for node, (comp_uid,) in merger.new_label.items():
            comp[node] = net.node_of_uid(comp_uid)
        relabelled = old_comp != np.asarray(comp, dtype=np.int64)

    if len(set(comp)) != 1:
        raise RuntimeError("GHS baseline did not converge")
    if len(mst_edges) != n - 1:
        raise RuntimeError(f"GHS produced {len(mst_edges)} edges")
    return RunResult(
        output=frozenset(mst_edges),
        ledger=ledger,
        meta={"phases": phase},
    )
