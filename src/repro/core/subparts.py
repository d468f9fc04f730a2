"""Sub-part divisions (Definition 4.1) and their randomized construction.

A sub-part division refines the PA partition: every part with more than
``D`` nodes is split into ``O~(|P_i| / D)`` *sub-parts*, each with a
spanning tree of diameter ``O(D)`` rooted at a *representative*.  Only
representatives inject messages into shortcut blocks, which is the paper's
key device for message-optimality (Section 3.2).

This module holds the :class:`SubPartDivision` structure plus the
randomized construction (Algorithm 3): representatives self-sample with
probability ``Theta(log n / D)`` and claim BFS balls of radius ``O(D)``
around themselves.  The deterministic construction (Algorithm 6) lives in
:mod:`repro.core.subparts_det`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..congest.arrays import PayloadColumns
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition
from .aggregation import SUM_TUPLE
from .array_kernels import expand_neighbors
from .treeops import claim_bfs, cross_round, run_convergecast
from .trees import ABSENT, RootedForest


@dataclass
class SubPartDivision:
    """A sub-part division of a partition.

    Attributes
    ----------
    forest:
        Spanning forest of all nodes; each tree is one sub-part, rooted at
        the sub-part's representative.
    rep_of:
        ``rep_of[v]`` is the representative (tree root) of v's sub-part.
    part_leader:
        ``part_leader[pid]`` is the part's leader node; every member knows
        it (the standing assumption of Section 4, discharged by Algorithm 9
        when absent).
    """

    partition: Partition
    forest: RootedForest
    rep_of: Tuple[int, ...]
    part_leader: Tuple[int, ...]

    @cached_property
    def wave_boundary_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node, in-part neighbors that are not sub-part tree neighbors.

        The candidate boundary edges of Algorithm 1 line 15, as a per-node
        CSR ``(starts, counts, neighbors)`` with each node's neighbors
        ascending.  A function of the division's own partition and forest
        (on the forest's network), so it is computed on first use and every
        wave over the division — verification, any number of solves —
        shares it; a projected or rebound division is a new object and
        computes its own.
        """
        arrays = self.forest.net.array_views
        src, adj = arrays.src_of_slot, arrays.adj
        part = np.asarray(self.partition.part_of, dtype=np.int64)
        fparent = np.asarray(self.forest.parent, dtype=np.int64)
        # A slot is a tree edge iff one endpoint is the other's forest
        # parent (ROOT/ABSENT are negative, never equal to a node id).
        keep = (part[src] == part[adj]) & (fparent[src] != adj) & (
            fparent[adj] != src
        )
        counts = np.bincount(src[keep], minlength=part.size)
        return np.cumsum(counts) - counts, counts, adj[keep]

    @cached_property
    def wave_fanout_csr(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per node, whom it hands a token on to: lines 14 and 15 as one CSR.

        ``(starts, counts, neighbors, crosses)``: a node's sub-part tree
        children, ascending, then its :attr:`wave_boundary_csr` neighbors;
        ``crosses`` is 1 on the boundary entries.  That is the order the
        wave sends them in, so the array wave fans a node out in one pass.
        """
        parent = self.forest.plan.parent
        _starts, b_counts, b_flat = self.wave_boundary_csr
        children = np.flatnonzero(parent >= 0)
        node = np.concatenate((
            parent[children], np.repeat(np.arange(parent.size), b_counts),
        ))
        crosses = np.zeros(node.size, dtype=np.int64)
        crosses[children.size:] = 1
        # Stable, so children stay ascending and boundary entries in order.
        order = np.lexsort((crosses, node))
        counts = np.bincount(node, minlength=parent.size)
        return (
            np.cumsum(counts) - counts, counts,
            np.concatenate((children, b_flat))[order], crosses[order],
        )

    def subparts_of_part(self, pid: int) -> List[int]:
        """Representatives of the sub-parts refining part ``pid``."""
        return sorted(
            {self.rep_of[v] for v in self.partition.members[pid]}
        )

    def num_subparts(self) -> int:
        """Total number of sub-parts."""
        return len(self.forest.roots)

    def max_subpart_depth(self) -> int:
        """Max sub-part tree depth (diameter is at most twice this)."""
        return self.forest.height()

    def validate(self, diameter_bound: Optional[int] = None) -> None:
        """Check Definition 4.1: sub-parts nest in parts; trees span them."""
        part_of = self.partition.part_of
        roots = self.forest.plan.root_of.tolist()
        for v, rep in enumerate(self.rep_of):
            if part_of[rep] != part_of[v]:
                raise ValueError(
                    f"node {v} (part {part_of[v]}) has representative {rep}"
                    f" in part {part_of[rep]}"
                )
            if roots[v] != rep:
                raise ValueError(f"rep_of[{v}] disagrees with the forest")
        if diameter_bound is not None:
            if self.forest.height() > diameter_bound:
                raise ValueError(
                    f"sub-part tree depth {self.forest.height()} exceeds"
                    f" bound {diameter_bound}"
                )


def _coverage_check(
    engine: Engine,
    net: Network,
    same_part: np.ndarray,
    forest: RootedForest,
    covered: Sequence[bool],
    ledger: CostLedger,
    name: str,
) -> Dict[int, object]:
    """Convergecast (count, any-uncovered-neighbor) to each claim root.

    The coverage check of Algorithm 3 / the small-part test: first one
    round in which nodes not claimed by the BFS tell their in-part
    neighbors (``same_part`` is that restriction, per CSR slot) — a leader
    can only be sure its BFS spanned the part if no claimed node is
    adjacent to an unclaimed in-part node — then the pair sum.
    """
    covered = np.asarray(covered, dtype=bool)
    src, dst, _ = expand_neighbors(
        net.array_views, np.flatnonzero(~covered), same_part
    )
    announce = cross_round(
        engine, (src, dst, PayloadColumns([], tag="uncov", size=src.size)),
        ledger, name=f"{name}_announce",
    )
    # (count, flag) per node; only the covered ones are in ``forest``.
    flag = np.zeros(net.n, dtype=np.int64)
    flag[announce.delivered[1]] = 1
    values = PayloadColumns([covered.astype(np.int64), flag])
    return run_convergecast(
        engine, forest, SUM_TUPLE, values, ledger, name=f"{name}_convergecast"
    ).at_root


def build_subpart_division_randomized(
    engine: Engine,
    net: Network,
    partition: Partition,
    leaders: Sequence[int],
    diameter: int,
    ledger: CostLedger,
    rng: random.Random,
) -> SubPartDivision:
    """Algorithm 3: randomized sub-part division.

    Phases (all metered):

    1. *Small-part probe*: every leader BFS-claims its part to depth ``D``;
       a coverage check tells the leader whether the part was spanned with
       at most ``D`` nodes.  Such parts become a single sub-part rooted at
       the leader.
    2. *Representative sampling*: in large parts, every node self-elects
       with probability ``min(1, 8 ln n / D)``; representatives BFS-claim
       balls of radius ``2D`` inside the part.
    3. *Fallback sweep*: any node left unclaimed (probability 1/poly(n))
       elects itself and claims; repeats until covered.  This replaces a
       w.h.p. argument with a certain loop whose extra cost is metered.

    Returns a validated :class:`SubPartDivision`.
    """
    return _divide_randomized(
        engine, net, partition, leaders, diameter, ledger, rng, None,
        range(partition.num_parts),
    )


def _divide_randomized(
    engine: Engine,
    net: Network,
    partition: Partition,
    leaders: Sequence[int],
    diameter: int,
    ledger: CostLedger,
    rng: random.Random,
    kept: Optional[SubPartDivision],
    dirty: Collection[int],
) -> SubPartDivision:
    """Algorithm 3 on the ``dirty`` parts; every other node keeps its
    sub-part tree in ``kept`` (nothing of theirs runs or draws)."""
    n = net.n
    depth_limit = max(1, diameter)
    part_of = partition.part_of

    # The edge restrictions, stated once per CSR slot for either engine.
    arrays = net.array_views
    part_np = np.asarray(part_of, dtype=np.int64)
    in_play = np.isin(part_np, list(dirty))
    same_part = (part_np[arrays.src_of_slot] == part_np[arrays.adj]) & (
        in_play[arrays.src_of_slot]
    )

    # Phase 1: leaders probe their parts to depth D.
    leader_tokens = {
        leaders[pid]: net.uid[leaders[pid]] for pid in sorted(dirty)
    }
    probe = claim_bfs(
        engine, net, leader_tokens, ledger, edge_mask=same_part,
        max_depth=depth_limit, name="subpart_probe",
    )
    covered = [token is not None for token in probe.token_of]
    at_root = _coverage_check(
        engine, net, same_part, probe.forest(), covered, ledger,
        "subpart_probe",
    )

    small_parts: Set[int] = set()
    for pid, leader in enumerate(leaders):
        info = at_root.get(leader)
        if info is not None:
            count, uncovered_flags = info
            if count <= depth_limit and uncovered_flags == 0:
                small_parts.add(pid)

    parent: List[int] = [ABSENT] * n
    rep_of: List[int] = [-1] * n
    if kept is not None:
        kept_parent = kept.forest.parent
        for v in np.flatnonzero(~in_play).tolist():
            parent[v], rep_of[v] = int(kept_parent[v]), kept.rep_of[v]
    for v in range(n):
        pid = part_of[v]
        if pid in small_parts:
            parent[v] = probe.parent_of[v]
            rep_of[v] = leaders[pid]

    # Phase 2 + 3: sample representatives in large parts; sweep until
    # every large-part node is claimed.  The paper samples at
    # Theta(log n / D); the constant matters at simulation scales (too
    # high and every node elects itself, degenerating the division), and
    # the fallback sweep below makes coverage certain regardless.
    prob = min(1.0, 2.0 * math.log(max(2, n)) / depth_limit)
    unclaimed = [
        v for v in np.flatnonzero(in_play).tolist()
        if part_of[v] not in small_parts
    ]
    sweep = 0
    while unclaimed:
        sweep += 1
        tokens: Dict[int, object] = {}
        for v in unclaimed:
            if rng.random() < prob or sweep > 1 and rng.random() < 0.5:
                tokens[v] = net.uid[v]
        if not tokens:
            # Degenerate sample; force the minimum-uid unclaimed node.
            forced = min(unclaimed, key=lambda v: net.uid[v])
            tokens[forced] = net.uid[forced]

        # Claimable edges: in-part, both endpoints still unclaimed.
        free = np.asarray(rep_of, dtype=np.int64) == -1
        claim = claim_bfs(
            engine, net, tokens, ledger,
            edge_mask=same_part & free[arrays.src_of_slot] & free[arrays.adj],
            max_depth=2 * depth_limit, name=f"subpart_claim_{sweep}",
        )
        for v in unclaimed:
            token = claim.token_of[v]
            if token is not None:
                parent[v] = claim.parent_of[v]
                rep_of[v] = net.node_of_uid(token)
        unclaimed = [v for v in unclaimed if rep_of[v] == -1]
        if sweep > 2 * ceil_log2(n) + 4:
            raise RuntimeError("sub-part sweep failed to converge")

    forest = RootedForest(net, parent)
    division = SubPartDivision(
        partition=partition,
        forest=forest,
        rep_of=tuple(rep_of),
        part_leader=tuple(leaders),
    )
    division.validate(diameter_bound=2 * depth_limit)
    return division
