"""Deterministic sub-part divisions (Algorithm 6, Section 6.2).

Every node starts as its own sub-part; sub-parts repeatedly merge in star
patterns (Algorithm 5) until they are *complete* — at least ``D`` nodes, or
spanning their whole part.  Star joinings keep merged spanning trees
shallow: incomplete sub-parts have fewer than ``D`` nodes (hence depth
< D), and each star attachment adds at most one joiner-tree depth, so
completed trees stay O~(D) deep (Lemma 6.4's diameter argument).

Each iteration runs, all on the engine:

1. a neighbor announce round (a node tells its in-part neighbors its
   sub-part id and completeness — the node-local knowledge lines 6-9 of
   Algorithm 6 presuppose);
2. a convergecast per incomplete sub-part choosing an outgoing edge,
   preferring edges to incomplete sub-parts (line 6) over complete ones
   (line 9); a sub-part with no outgoing in-part edge spans its whole part
   and completes immediately;
3. a broadcast delivering the chosen edge to its endpoint;
4. Algorithm 5 (star joining) over the chosen edges, with Cole-Vishkin
   color exchanges routed through the sub-part trees;
5. a merge flood: each joiner re-roots its tree at the chosen endpoint by
   re-orienting along the flood, attaches under the receiver, and adopts
   the receiver's identity and completeness;
6. a size convergecast + completeness broadcast (line 15).

A node speaks only on news.  After the first announce it re-announces
only a pair that changed, and its neighbors keep what they last heard.
The sweeps of steps 2 and 6 run only in incomplete sub-parts: completeness
never reverts, and every member of a complete sub-part heard so (in step
6, in step 2's isolation broadcast, or in the merge flood that brought it
in).

O(log n) iterations suffice (a constant fraction of incomplete sub-parts
merge per iteration, Lemma 6.3); the loop enforces a 3 log2 n + 8 cap and
fails loudly rather than silently looping.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from ..congest.arrays import PayloadColumns
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition
from .aggregation import MIN_TUPLE, SUM
from .star_joining import SuperEdge, TreeSuperOps, compute_star_joining
from .subparts import SubPartDivision
from .treeops import (
    MergeFloodProgram, cross_round, run_broadcast, run_convergecast,
)
from .trees import ABSENT, ROOT, RootedForest


def build_subpart_division_deterministic(
    engine: Engine,
    net: Network,
    partition: Partition,
    leaders: Sequence[int],
    diameter: int,
    ledger: CostLedger,
) -> SubPartDivision:
    """Algorithm 6: deterministic sub-part division via star joinings."""
    return _divide_deterministic(
        engine, net, partition, leaders, diameter, ledger, None,
        range(partition.num_parts),
    )


def _divide_deterministic(
    engine: Engine,
    net: Network,
    partition: Partition,
    leaders: Sequence[int],
    diameter: int,
    ledger: CostLedger,
    kept: Optional[SubPartDivision],
    dirty: Collection[int],
) -> SubPartDivision:
    """Algorithm 6 on the ``dirty`` parts.  Every other node starts out of
    play (complete, in no forest the loop sweeps, on no announce edge) and
    ends in its sub-part tree in ``kept``."""
    n = net.n
    threshold = max(1, diameter)
    arrays = net.array_views
    uid = arrays.uid
    # The announce round's edges: every directed edge inside a dirty part.
    part_of = np.asarray(partition.part_of, dtype=np.int64)
    in_play = np.isin(part_of, list(dirty))
    in_part = (part_of[arrays.src_of_slot] == part_of[arrays.adj]) & (
        in_play[arrays.src_of_slot]
    )
    ann_src, ann_dst = arrays.src_of_slot[in_part], arrays.adj[in_part]
    # What each node last announced, and what it last heard from each
    # in-part neighbor: one row per edge, receiver-major (``me`` hears
    # ``nb``), as the round delivers them.  A row never heard offers nothing.
    said = None
    heard_key = np.sort(ann_dst * n + ann_src)
    me, nb = heard_key // n, heard_key % n
    nb_heard = np.zeros(heard_key.size, dtype=bool)
    nb_rep_uid = np.zeros(heard_key.size, dtype=np.int64)
    nb_done = np.zeros(heard_key.size, dtype=bool)

    ones = PayloadColumns([np.ones(n, dtype=np.int64)], bare=True)

    parent: List[int] = np.where(in_play, ROOT, ABSENT).tolist()
    rep_of: List[int] = list(range(n))
    complete: List[bool] = (~in_play).tolist()

    max_iterations = 3 * ceil_log2(n) + 8
    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                "deterministic sub-part division failed to converge"
            )
        forest = RootedForest(net, parent)

        # Completeness by size (line 15) -- convergecast sizes, then
        # broadcast the verdict so every member knows its flag; in the
        # incomplete sub-parts only.
        sizing = forest.restrict(r for r in forest.roots if not complete[r])
        sizes = run_convergecast(
            engine, sizing, SUM, ones, ledger, name="det_sizes"
        ).at_root
        flags = run_broadcast(
            engine, sizing,
            {sid: ("cpl", size >= threshold) for sid, size in sizes.items()},
            ledger, name="det_complete_flags",
        ).received
        for v, payload in flags.items():
            complete[v] = payload[1]

        if all(complete):
            break

        # 1. Announce (sub-part id, completeness) to in-part neighbors: all
        # of it the first time, afterwards only the pairs that changed.
        rep_uids = uid[np.asarray(rep_of, dtype=np.int64)]
        done = np.asarray(complete, dtype=bool)
        src, dst = ann_src, ann_dst
        if said is not None:
            news = ((rep_uids != said[0]) | (done != said[1]))[src]
            src, dst = src[news], dst[news]
        said = rep_uids, done
        sender, receiver, heard = cross_round(
            engine,
            (
                src, dst,
                PayloadColumns(
                    [rep_uids[src], done[src]], (False, True), tag="nb"
                ),
            ),
            ledger, name="det_announce",
        ).delivered
        rows = np.searchsorted(heard_key, receiver * n + sender)
        nb_rep_uid[rows], nb_done[rows] = heard.cols
        nb_heard[rows] = True

        # 2. Choose outgoing edges: prefer incomplete targets (lines 6-9).
        # Each incomplete node offers the least (target complete?, own
        # uid, neighbor uid) over its neighbors in other sub-parts: with
        # the rows sorted that way, the first row of each node.
        rows = np.flatnonzero(
            nb_heard & ~done[me] & (nb_rep_uid != rep_uids[me])
        )
        rows = rows[np.lexsort((uid[nb[rows]], nb_done[rows], me[rows]))]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = me[rows[1:]] != me[rows[:-1]]
        rows = rows[first]
        offers = PayloadColumns(
            [nb_done[rows], uid[me[rows]], uid[nb[rows]]]
        ).scatter(n, me[rows])
        choosing = sizing.restrict(r for r in sizing.roots if not complete[r])
        chosen_at_rep = run_convergecast(
            engine, choosing, MIN_TUPLE, offers, ledger, name="det_choose"
        ).at_root

        # Sub-parts with no outgoing in-part edge span their part: complete.
        isolated = {
            sid for sid in choosing.roots if chosen_at_rep.get(sid) is None
        }
        if isolated:
            flags = run_broadcast(
                engine, forest, {sid: ("cpl", True) for sid in isolated},
                ledger, name="det_isolated_complete",
            ).received
            for v in flags:
                complete[v] = True

        participants_edges: Dict[int, SuperEdge] = {}
        bcast_values = {}
        for sid in choosing.roots:
            choice = chosen_at_rep.get(sid)
            if choice is None:
                continue
            _pref, uid_u, uid_nb = choice
            u = net.node_of_uid(uid_u)
            v_nb = net.node_of_uid(uid_nb)
            participants_edges[sid] = (u, v_nb, rep_of[v_nb])
            bcast_values[sid] = ("edge", uid_u, uid_nb)
        if not participants_edges:
            continue

        # 3. Deliver the chosen edge to its endpoint (the broadcast also
        # realizes "all v in P_i know some common edge" of Definition 6.1).
        run_broadcast(
            engine, forest, bcast_values, ledger, name="det_edge_bcast"
        )

        # 4. Star joining (Algorithm 5).
        ops = TreeSuperOps(
            engine, net, forest, participants_edges, ledger,
            phase_prefix=f"det_star_{iteration}",
        )
        ops.announce_requests()
        receivers, joins = compute_star_joining(
            ops, set(participants_edges)
        )

        # 5. Merge joiners into receivers: each adopts the receiver's
        # (rep uid, completeness).
        merger = MergeFloodProgram(forest, {
            sid: (u, v_nb, (net.uid[rep_of[v_nb]], complete[v_nb]))
            for sid, (u, v_nb, _target) in joins.items()
        }, name="det_merge")
        ledger.charge(engine.run(merger, max_ticks=4 * threshold + 8))
        for node, new_parent in merger.new_parent.items():
            parent[node] = new_parent
        for node, (rep_uid, cflag) in merger.new_label.items():
            rep_of[node] = net.node_of_uid(rep_uid)
            complete[node] = cflag
        # Roots of joined trees are no longer roots; recompute rep ids for
        # consistency (receiver identity propagated via labels).
        for v in range(n):
            if parent[v] == ROOT:
                rep_of[v] = v

    if kept is not None:
        kept_parent = kept.forest.parent
        for v in np.flatnonzero(~in_play).tolist():
            parent[v] = int(kept_parent[v])
    forest = RootedForest(net, parent)
    division = SubPartDivision(
        partition=partition,
        forest=forest,
        rep_of=tuple(forest.plan.root_of.tolist()),
        part_leader=tuple(leaders),
    )
    division.validate()
    return division
