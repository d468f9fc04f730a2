"""Shard views: restrict a global PA setup to one shard, and rebuild it.

The orchestrator side (:func:`build_shard_payload`) produces a picklable
payload: flat int64 columns for the topology, structure and annotation
arrays.  The worker side
(:func:`rebuild_shard`) turns a payload back into the live objects the
wave phases consume — a real :class:`~repro.congest.network.Network`
over the induced sub-graph and duck-typed partition/division/shortcut
views.

Relabelings are *order-isomorphic*: local node ids are the ranks of the
sorted global ids, local part ids the ranks of the sorted global part
ids.  Every order the wave machinery relies on — ascending neighbor
lists, ascending forest children, sorted ``(node, part)`` reversal keys,
the engine's (src, dst)-sorted delivery, the ``(block depth, pid)``
packet priorities — is therefore preserved verbatim under restriction,
which is the structural half of the bit-for-bit parity argument.

Two fix-ups keep the restricted run on the global cost model:

* ``message_bits`` is forced to the *global* budget (a sub-network would
  compute a smaller O(log n') limit and could reject messages the serial
  run accepts);
* node ``uid``\\ s are the global ones (leader tokens and the block-root
  uids annotation messages carry are global uids; a shard must compare
  against, and meter the bits of, the same values).

Nodes that serve a shard only as interior points of used tree edges
(*Steiner nodes*) are carried with sentinel part ids ``>= num_parts``
(one distinct id each, so no two Steiner nodes ever compare as
part-mates), an ``ABSENT`` forest parent and no representative; they
can relay ``ku``/``kd`` block traffic but never gain a token, never
aggregate and never appear in results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.network import Network
from ..core.blocks import BlockAnnotations
from ..core.shortcuts import Shortcut
from ..core.subparts import SubPartDivision
from ..core.trees import ABSENT, ROOT, RootedForest
from ..core.wave import WavePlan
from ..core.pa import PASetup


class ShardPartition:
    """Duck-typed partition view over a shard's local node ids.

    ``num_parts`` counts only the shard's real parts; Steiner nodes
    carry sentinel ids ``num_parts + k`` which never appear in
    ``members``.  Matches the :class:`~repro.graphs.partitions.Partition`
    surface the wave programs read (``part_of``/``num_parts``/
    ``members``) without its contiguity validation.
    """

    __slots__ = ("part_of", "num_parts", "members")

    def __init__(self, part_of: Sequence[int], num_parts: int) -> None:
        self.part_of: Tuple[int, ...] = tuple(part_of)
        self.num_parts = num_parts
        members: List[List[int]] = [[] for _ in range(num_parts)]
        for node, pid in enumerate(self.part_of):
            if pid < num_parts:
                members[pid].append(node)
        self.members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(part) for part in members
        )


class ShardShortcut(Shortcut):
    """A shard-restricted shortcut view.

    Reuses every :class:`~repro.core.shortcuts.Shortcut` derivation
    (``down_csr``/``up_key_array``) but skips the
    constructor's single-spanning-tree validation: a shard's restricted
    tree is a *forest* (one root per node whose parent edge the shard
    does not use).
    """

    def __init__(self, tree, partition, up_parts) -> None:
        self.tree = tree
        self.partition = partition
        self.up_parts = tuple(frozenset(parts) for parts in up_parts)


def build_shard_payload(
    setup: PASetup, shard_pids: Sequence[int]
) -> Dict[str, object]:
    """Restrict ``setup`` to the given (conflict-closed) part ids.

    Returns a picklable payload dict; the shard's member nodes in global
    ids are under ``"nodes"``/``"is_member"`` (the orchestrator keeps
    them to route values in and results out).
    """
    network = setup.division.forest.net
    partition = setup.partition
    part_of = np.asarray(partition.part_of, dtype=np.int64)
    tparent = np.asarray(setup.shortcut.tree.parent, dtype=np.int64)
    fparent = np.asarray(setup.division.forest.parent, dtype=np.int64)
    rep_of = np.asarray(setup.division.rep_of, dtype=np.int64)

    shard_pids = np.asarray(sorted(shard_pids), dtype=np.int64)
    num_parts = int(shard_pids.size)
    # part id -> local rank (or -1).
    pid_local = np.full(partition.num_parts, -1, dtype=np.int64)
    pid_local[shard_pids] = np.arange(num_parts, dtype=np.int64)

    in_shard_part = np.zeros(partition.num_parts + 1, dtype=bool)
    in_shard_part[shard_pids] = True
    member_mask = in_shard_part[part_of]

    # Used tree edges: conflict closure guarantees up_parts[c] is either
    # entirely inside the shard or entirely outside, so one witness pid
    # per node suffices to classify the edge.
    up_parts = setup.shortcut.up_parts
    used = np.zeros(network.n, dtype=bool)
    for c, parts in enumerate(up_parts):
        if parts and in_shard_part[next(iter(parts))]:
            used[c] = True
    used_children = np.flatnonzero(used)
    endpoints = np.concatenate([used_children, tparent[used_children]])

    node_mask = member_mask.copy()
    node_mask[endpoints] = True
    nodes = np.flatnonzero(node_mask)  # sorted global ids
    local_n = int(nodes.size)
    node_local = np.full(network.n, -1, dtype=np.int64)
    node_local[nodes] = np.arange(local_n, dtype=np.int64)

    # Induced edges, from the global CSR (src < adj keeps each edge once).
    arrays = network.array_views
    keep = node_mask[arrays.src_of_slot] & node_mask[arrays.adj] & (
        arrays.src_of_slot < arrays.adj
    )
    edges_src = node_local[arrays.src_of_slot[keep]]
    edges_dst = node_local[arrays.adj[keep]]

    # Local part ids; Steiner nodes get distinct sentinels >= num_parts.
    local_part = pid_local[part_of[nodes]]
    steiner = ~member_mask[nodes]
    num_steiner = int(steiner.sum())
    local_part[steiner] = num_parts + np.arange(num_steiner, dtype=np.int64)

    # Forest: members keep their (in-part, hence in-shard) parent edges;
    # Steiner nodes are outside the forest.
    local_fparent = np.full(local_n, ABSENT, dtype=np.int64)
    g_fp = fparent[nodes]
    has_fp = (g_fp >= 0) & ~steiner
    local_fparent[has_fp] = node_local[g_fp[has_fp]]
    local_fparent[(g_fp == ROOT) & ~steiner] = ROOT

    local_rep = np.full(local_n, -1, dtype=np.int64)
    local_rep[~steiner] = node_local[rep_of[nodes[~steiner]]]

    # Restricted tree: parent edge kept iff the shard uses it.
    local_tparent = np.full(local_n, ROOT, dtype=np.int64)
    used_local = used[nodes]
    local_tparent[used_local] = node_local[tparent[nodes[used_local]]]

    local_up: List[Tuple[int, ...]] = [()] * local_n
    for lv in np.flatnonzero(used_local).tolist():
        local_up[lv] = tuple(
            sorted(int(pid_local[pid]) for pid in up_parts[int(nodes[lv])])
        )

    leaders = [
        int(node_local[setup.division.part_leader[int(gpid)]])
        for gpid in shard_pids.tolist()
    ]

    # Annotation rows of the shard's parts, renumbered (their nodes are
    # all on used edges, hence in the shard).
    ann = setup.annotations
    keys = pid_local[ann.pid] >= 0
    tokens = pid_local[ann.token_pid] >= 0
    annotations = {
        "node": node_local[ann.node[keys]],
        "pid": pid_local[ann.pid[keys]],
        "depth": ann.depth[keys],
        "token_node": node_local[ann.token_node[tokens]],
        "token_pid": pid_local[ann.token_pid[tokens]],
    }

    return {
        "nodes": nodes,
        "is_member": ~steiner,
        "shard_pids": shard_pids,
        "num_parts": num_parts,
        "num_steiner": num_steiner,
        "uid": np.asarray(network.uid, dtype=np.int64)[nodes],
        "message_bits": network.message_bits,
        "edges_src": edges_src,
        "edges_dst": edges_dst,
        "part_of": local_part,
        "fparent": local_fparent,
        "rep_of": local_rep,
        "tparent": local_tparent,
        "up_parts": local_up,
        "part_leader": leaders,
        "annotations": annotations,
    }


def restrict_plan(plan: WavePlan, shard_pids: Sequence[int]) -> WavePlan:
    """Project a global :class:`WavePlan` onto a shard's local part ids.

    Capacity, meta-round accounting and the round budget stay *global*
    (they were computed from the global n/b/c/depth and must not be
    recomputed from the restriction); only the per-part dicts relabel.
    """
    return replace(
        plan,
        delays=restrict_delays(plan.delays, shard_pids),
        leader_tokens={
            lp: plan.leader_tokens[gpid]
            for lp, gpid in enumerate(sorted(shard_pids))
        },
    )


def restrict_delays(
    delays: Dict[int, int], shard_pids: Sequence[int]
) -> Dict[int, int]:
    """A delay draw's entries for a shard's parts, under local part ids."""
    return {
        lp: delays[gpid]
        for lp, gpid in enumerate(sorted(shard_pids)) if gpid in delays
    }


def restrict_values(
    values: Sequence[object],
    nodes: np.ndarray,
    is_member: np.ndarray,
) -> List[object]:
    """Per-local-node values: the global value for members, None otherwise."""
    out: List[object] = [None] * nodes.size
    for lv in np.flatnonzero(is_member).tolist():
        out[lv] = values[int(nodes[lv])]
    return out


class ShardSetup:
    """The live (worker-side) machinery rebuilt from one shard payload."""

    __slots__ = (
        "net", "partition", "division", "shortcut", "annotations",
        "num_parts", "member_locals",
    )

    def __init__(self, net, partition, division, shortcut, annotations,
                 num_parts, member_locals) -> None:
        self.net = net
        self.partition = partition
        self.division = division
        self.shortcut = shortcut
        self.annotations = annotations
        self.num_parts = num_parts
        self.member_locals = member_locals


def rebuild_shard(payload: Dict[str, object]) -> ShardSetup:
    """Worker-side: turn a payload back into live wave-phase structures."""
    local_n = int(payload["nodes"].size)
    subnet = Network(
        np.column_stack((payload["edges_src"], payload["edges_dst"])),
        n=local_n,
    )
    # Global identities: uids before any cached_property materializes
    # them, and the global bit budget (see module docstring).
    subnet.__dict__["uid"] = tuple(payload["uid"].tolist())
    subnet.message_bits = payload["message_bits"]

    num_parts = int(payload["num_parts"])
    partition = ShardPartition(payload["part_of"].tolist(), num_parts)
    forest = RootedForest(subnet, payload["fparent"].tolist())
    # part_leader is indexed by Steiner sentinel ids in the scalar
    # activation hook; pad with -1 (matches no node).
    part_leader = tuple(payload["part_leader"]) + (
        (-1,) * int(payload["num_steiner"])
    )
    division = SubPartDivision(
        partition=partition,
        forest=forest,
        rep_of=tuple(payload["rep_of"].tolist()),
        part_leader=part_leader,
    )
    tree = RootedForest(subnet, payload["tparent"].tolist())
    shortcut = ShardShortcut(tree, partition, payload["up_parts"])
    annotations = BlockAnnotations(**payload["annotations"])
    member_locals = np.flatnonzero(payload["is_member"])
    return ShardSetup(
        net=subnet,
        partition=partition,
        division=division,
        shortcut=shortcut,
        annotations=annotations,
        num_parts=num_parts,
        member_locals=member_locals,
    )
