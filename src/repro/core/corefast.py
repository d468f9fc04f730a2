"""Randomized message-efficient shortcut construction (Section 5.2).

The construction follows Algorithm 4: repeat CoreFast-style *claiming* on
the parts that do not yet have a good shortcut, verify block parameters
with the PA machinery itself (Algorithm 2 / Lemma 4.5), and freeze the
parts whose block parameter is small enough.

CoreFast claiming, as the paper describes it: a sampled set of vertices
(for us: exactly the sub-part representatives, which is the paper's
message-optimality device) send their part id up the BFS tree ``T``,
*claiming* every edge they cross; an edge admits at most ``theta = 2c``
distinct part ids per run and rejects the rest, truncating those parts'
climbs.  A part's shortcut ``H_i`` is the set of edges its claims crossed —
a union of upward path prefixes, which is what makes every block
identifiable and countable locally (see :mod:`repro.core.blocks`).

Compared to [19]'s original CoreFast we admit the first ``theta`` parts per
edge (in randomized priority order) instead of deleting over-subscribed
edges outright; both cap per-run congestion at ``theta``, ours additionally
preserves the "H_i is a union of climb prefixes" invariant the counting
relies on (docs/architecture.md, "Deviations from the paper").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition
from .aggregation import SUM
from .array_queue import ClaimArrayKernel
from .blocks import BlockAnnotations, annotate_blocks
from .shortcuts import Shortcut
from .subparts import SubPartDivision
from .treeops import run_phase
from .trees import RootedForest
from .wave import RouteMemo, run_pa_waves


@dataclass
class ShortcutBuildResult:
    """A constructed shortcut plus its annotations and quality."""

    shortcut: Shortcut
    annotations: BlockAnnotations
    block_counts: List[int]
    iterations: int

    def quality(self) -> Tuple[int, int]:
        return self.shortcut.quality()


def _merge_up_parts(
    n: int, frozen: List[Set[int]], fresh: List[Set[int]], keep: Set[int]
) -> List[Set[int]]:
    """Frozen edges plus the fresh claims of the parts in ``keep``."""
    merged = [set(parts) for parts in frozen]
    for v in range(n):
        for pid in fresh[v]:
            if pid in keep:
                merged[v].add(pid)
    return merged


def verify_block_parameters(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    shortcut: Shortcut,
    annotations: BlockAnnotations,
    ledger: CostLedger,
    randomized: bool,
    rng: Optional[random.Random],
    phase_prefix: str = "verify",
    route: Optional[RouteMemo] = None,
) -> List[int]:
    """Algorithm 2: every part learns its block parameter, via PA itself.

    Each nontrivial block delivered exactly one counting token to a part
    member during annotation; summing the tokens part-wise with the PA
    waves gives every leader (and then every node) its part's block count.
    Costs the full PA price, as Lemma 4.5 charges.  ``route`` is the
    :class:`~repro.core.wave.RouteMemo` the verification learns into: a
    session projection's (``setup.route``), or a fresh one per build
    candidate that the accepted candidate's setup adopts
    (:func:`build_shortcut_by_doubling`).  Either way the verification
    is the first solve of the setup it accepts.
    """
    # A node's value is the number of its own part's tokens it holds.
    held = annotations.token_node
    mine = held[
        np.asarray(partition.part_of, dtype=np.int64)[held]
        == annotations.token_pid
    ]
    values: List[Optional[int]] = [
        count or None for count in np.bincount(mine, minlength=net.n).tolist()
    ]
    outcome = run_pa_waves(
        engine, net, partition, division, shortcut, annotations,
        values, SUM, ledger, randomized=randomized, rng=rng,
        phase_prefix=phase_prefix, route=route,
    )
    counts = [0] * partition.num_parts
    for pid, total in outcome.aggregates.items():
        counts[pid] = total or 0
    return counts


def block_target_for(n: int) -> int:
    """``max(3, 3 ceil(log2 n))``: the block parameter a part may keep.

    The target the constructions freeze parts at, and the budget a
    session's projection is held to (:meth:`PASession.block_budget`) —
    one standard for the from-scratch pipeline and for reuse.
    """
    return max(3, 3 * ceil_log2(n))


def build_shortcut_by_doubling(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    tree: RootedForest,
    diameter: int,
    ledger: CostLedger,
    claim: Callable[..., Sequence[Set[int]]],
    verify_prefix: str,
    rng: Optional[random.Random],
    congestion_budget: Optional[int],
    block_target: Optional[int],
    max_iterations: Optional[int],
    grow_budget: bool,
    carried: Optional[Tuple[Shortcut, Collection[int]]],
) -> ShortcutBuildResult:
    """The claim / verify / freeze loop both constructions share.

    Parts of at most ``diameter`` nodes never claim (their waves stay
    intra-part).  Each iteration the remaining parts claim via their
    representatives: ``claim(iteration, active, claimants, budget)`` — the
    one step Algorithms 4 and 8 differ in — runs the claiming phases for
    the ``(representative, part)`` pairs of the still-active parts under
    the current congestion budget and returns, per node, the parts
    admitted onto its parent edge.  Block parameters are then verified
    with the PA machinery itself (Lemma 4.5, phases
    ``{verify_prefix}_{iteration}_*``, randomized iff there is an
    ``rng``); parts whose verified block
    parameter is at most ``block_target`` freeze their claims, and the
    others retry under (if ``grow_budget``) a doubled budget — the
    doubling trick of Section 1.3.  The iteration cap force-freezes
    whatever is still active, so construction always terminates with
    measured, not assumed, quality.  Either way the loop ends with every
    still-active part frozen, so the last candidate *is* the shortcut,
    edge for edge: it is returned with the annotations its verification
    ran on, not rebuilt and annotated a second time — and each
    verification learns into a fresh :class:`~repro.core.wave.RouteMemo`
    that rides on its candidate's annotations (``verified``), so the
    last one's route leaves with the build: the setup over ``division``
    and the returned shortcut adopts it, and its first solve is one
    all-reduce.

    ``carried = (shortcut, dirty)`` builds only the ``dirty`` parts: the
    others' edges in ``shortcut`` start out frozen.
    """
    n = net.n
    if block_target is None:
        block_target = block_target_for(n)
    if max_iterations is None:
        max_iterations = ceil_log2(n) + 3
    budget = congestion_budget if congestion_budget is not None else 2

    kept, dirty = carried or (None, range(partition.num_parts))
    frozen_up: List[Set[int]] = [
        {pid for pid in parts if pid not in dirty}
        for parts in (kept.up_parts if kept else [()] * n)
    ]
    active: Set[int] = {
        pid for pid in dirty if partition.size_of(pid) > diameter
    }

    reps_by_part: Dict[int, List[int]] = {}
    for rep in division.forest.roots:
        pid = partition.part_of[rep]
        reps_by_part.setdefault(pid, []).append(rep)

    iterations = 0
    candidate = annotations = None
    while active and iterations < max_iterations:
        iterations += 1
        claimants = [
            (rep, pid)
            for pid in sorted(active)
            for rep in reps_by_part.get(pid, ())
        ]
        fresh = claim(iterations, active, claimants, budget)

        candidate_up = _merge_up_parts(n, frozen_up, fresh, active)
        candidate = Shortcut(tree, partition, candidate_up)
        annotations = annotate_blocks(engine, candidate, ledger)
        route = RouteMemo()
        counts = verify_block_parameters(
            engine, net, partition, division, candidate, annotations,
            ledger, randomized=rng is not None, rng=rng,
            phase_prefix=f"{verify_prefix}_{iterations}", route=route,
        )
        annotations.verified = (division, candidate, route)

        newly_frozen = {
            pid for pid in active if counts[pid] <= block_target
        }
        if iterations == max_iterations:
            newly_frozen = set(active)
        for v in range(n):
            for pid in fresh[v]:
                if pid in newly_frozen:
                    frozen_up[v].add(pid)
        active -= newly_frozen
        if grow_budget:
            budget *= 2

    if candidate is None:  # no part ever claimed: the empty shortcut
        candidate = Shortcut(tree, partition, frozen_up)
        annotations = annotate_blocks(engine, candidate, ledger)
    return ShortcutBuildResult(
        shortcut=candidate,
        annotations=annotations,
        block_counts=annotations.block_counts(partition.num_parts),
        iterations=iterations,
    )


def build_shortcut_randomized(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    tree: RootedForest,
    diameter: int,
    ledger: CostLedger,
    rng: random.Random,
    congestion_budget: Optional[int] = None,
    block_target: Optional[int] = None,
    max_iterations: Optional[int] = None,
    grow_budget: bool = True,
) -> ShortcutBuildResult:
    """Algorithm 4 with the doubling trick of Section 1.3.

    :func:`build_shortcut_by_doubling` with CoreFast claiming as the claim
    step (:func:`_corefast_claim`); verification runs the randomized PA
    variant.
    """
    return build_shortcut_by_doubling(
        engine, net, partition, division, tree, diameter, ledger,
        _corefast_claim(engine, tree, ledger, rng), "verify", rng,
        congestion_budget, block_target, max_iterations, grow_budget, None,
    )


def _corefast_claim(
    engine: Engine, tree: RootedForest, ledger: CostLedger, rng: random.Random
) -> Callable[..., Sequence[Set[int]]]:
    """Algorithm 4's claim step: representatives flood their part id up
    ``T`` under a per-edge budget ``theta = 2 * budget`` and fresh random
    priorities per iteration."""

    def claim(iteration, active, claimants, budget):
        priorities = {pid: rng.randrange(1 << 30) for pid in active}
        theta = max(2, 2 * budget)
        return run_phase(
            engine, ledger, f"corefast_claim_{iteration}", ClaimArrayKernel,
            (tree, claimants, theta, priorities),
            32 + 4 * (tree.height() + theta),
        ).claimed_up

    return claim
