"""Capped Steiner-climb shortcuts: the shared core of every family row.

Every family-specific construction in this package builds the same kind of
object: for each part, the **Steiner subtree** of its members inside the
spanning tree ``T`` (the union of member-to-LCA climbs — the minimal
connected H_i, giving block parameter 1), subject to a per-edge
**congestion cap**.  The families differ only in the cap, which each
registry row derives from its decomposition certificate: ``O~(D)`` per BFS
layering for planar/genus graphs, ``O~(t)`` per tree decomposition for
treewidth-t families, ``O(p)`` per path decomposition for pathwidth-p
families.

When an edge is saturated the parts that arrive later simply do not get
it: their Steiner subtree splits into blocks, trading block parameter for
congestion exactly like CoreFast's truncated climbs — except here the cap
is the *family envelope*, so the measured congestion is O~(D) (resp.
O~(t), O(p)) **by construction** and the block parameter is what the
benchmarks measure and check.

Distributed realization and cost accounting: the climbs are the same
messages CoreFast sends (each member forwards its part id one hop up; an
edge admits at most ``cap`` part ids), pipelined in ``height(T) + c``
rounds with one message per admitted or rejected crossing.  We compute the
result oracle-side for speed and charge exactly that structural cost via
``CostLedger.charge_local``; the block annotation wave that follows runs
on the engine and is metered for real, like every other construction here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..core.blocks import annotate_blocks
from ..core.corefast import ShortcutBuildResult
from ..core.shortcuts import Shortcut
from ..core.trees import RootedForest
from ..graphs.partitions import Partition


def steiner_edges_of_part(
    tree: RootedForest, members: Sequence[int]
) -> List[int]:
    """Edges of the minimal subtree of ``tree`` spanning ``members``.

    Edges are keyed by their child node (the edge is (v, parent(v))),
    returned sorted by decreasing depth then node id — the deterministic
    admission order of the capped construction (deepest edges first keeps
    truncated parts' blocks anchored at their members).
    """
    parent = tree.parent
    marked: Set[int] = set()
    for m in members:
        cur = m
        while parent[cur] >= 0 and cur not in marked:
            marked.add(cur)
            cur = parent[cur]
    if not marked:
        return []
    # The union of root paths overshoots above the members' LCA; peel the
    # chain of single-marked-child non-members from the root down.
    children_marked: Dict[int, List[int]] = {}
    for x in marked:
        children_marked.setdefault(parent[x], []).append(x)
    member_set = set(members)
    cur = tree.roots[0]
    while cur not in member_set:
        kids = children_marked.get(cur, ())
        if len(kids) != 1:
            break
        child = kids[0]
        marked.discard(child)
        cur = child
    depth = tree.depth
    return sorted(marked, key=lambda v: (-depth[v], v))


def steiner_up_parts(
    tree: RootedForest,
    partition: Partition,
    diameter: int,
    cap: Optional[int] = None,
    skip_small: bool = True,
) -> Tuple[List[Set[int]], int, int, int]:
    """Capped Steiner climbs for every part.

    Returns ``(up_parts, congestion, admitted, truncated)``: the per-node
    part sets, the max per-edge load actually reached, and the admitted /
    cap-rejected edge-crossing counts (the message cost of the distributed
    realization).

    ``skip_small`` applies the standard exemption (Section 4): parts of at
    most ``diameter`` members never claim — their waves stay intra-part —
    mirroring the general constructions bit for bit.  Pass ``False`` to
    force every part to build its Steiner subtree (used by benchmarks to
    exhibit the congestion envelope on partitions the exemption would
    otherwise silence).
    """
    n = tree.net.n
    up: List[Set[int]] = [set() for _ in range(n)]
    load = [0] * n  # parts admitted onto each node's parent edge
    truncated = 0
    for pid in range(partition.num_parts):
        members = partition.members[pid]
        if skip_small and len(members) <= diameter:
            continue
        for v in steiner_edges_of_part(tree, members):
            if cap is not None and load[v] >= cap:
                truncated += 1
                continue
            load[v] += 1
            up[v].add(pid)
    return up, max(load), sum(load), truncated


def build_steiner_shortcut(
    engine: Engine,
    net: Network,
    partition: Partition,
    tree: RootedForest,
    diameter: int,
    ledger: CostLedger,
    cap: Optional[int] = None,
    skip_small: bool = True,
    name: str = "family_steiner",
    certificate: Optional[object] = None,
) -> ShortcutBuildResult:
    """Build a capped Steiner shortcut and annotate its blocks."""
    up, congestion, admitted, truncated = steiner_up_parts(
        tree, partition, diameter, cap=cap, skip_small=skip_small
    )
    shortcut = Shortcut(tree, partition, up)
    # Structural cost of the distributed climbs (see module docstring):
    # pipelined member climbs finish in height + congestion rounds; every
    # admitted or rejected crossing is one message.
    ledger.charge_local(
        f"{name}_claims",
        rounds=tree.height() + congestion,
        messages=admitted + truncated,
    )
    annotations = annotate_blocks(engine, shortcut, ledger)
    return ShortcutBuildResult(
        shortcut=shortcut,
        annotations=annotations,
        block_counts=annotations.block_counts(partition.num_parts),
        iterations=1,
        certificate=certificate,
    )
