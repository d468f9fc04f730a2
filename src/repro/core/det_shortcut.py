"""Algorithm 8: deterministic shortcut construction (Section 6.3).

Bottom-up over the heavy path decomposition: paths are processed in waves
by *rank* (a path activates once every path feeding claims into it over a
light edge has finished — at most log2 n waves).  Each wave runs
Algorithm 7 (:mod:`repro.core.path_shortcut`) on its paths, then ships the
finished tops' claim sets across their light parent edges.

The outer loop repeats the bottom-up sweep O(log n) times: after each
sweep the block parameters are verified with the PA machinery itself
(Lemma 4.5, deterministic variant), parts whose block parameter is within
the target freeze their claimed edges, and the remaining parts retry under
a doubled congestion budget.  The analysis of Lemma 6.7 shows at least
half the active parts go good per sweep; we additionally force-freeze at
the iteration cap so construction always terminates (with measured, not
assumed, quality).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..graphs.partitions import Partition
from .corefast import ShortcutBuildResult, build_shortcut_by_doubling
from .heavy_path import HeavyPathDecomposition, build_heavy_path_decomposition
from .path_shortcut import run_path_doubling_wave
from .subparts import SubPartDivision
from .trees import RootedForest


def _bottom_up_sweep(
    engine: Engine,
    tree: RootedForest,
    hpd: HeavyPathDecomposition,
    seeds: Dict[int, Set[int]],
    threshold: int,
    ledger: CostLedger,
    sweep_name: str,
) -> List[Set[int]]:
    """One full bottom-up pass of Algorithm 7 waves; returns fresh claims."""
    store: Dict[int, Set[int]] = {v: set(pids) for v, pids in seeds.items()}
    claims: List[Set[int]] = [set() for _ in range(tree.net.n)]
    by_rank = hpd.paths_by_rank()
    for rank in sorted(by_rank):
        tops = by_rank[rank]
        wave_claims = run_path_doubling_wave(
            engine, tree, hpd, tops, store, threshold, ledger,
            wave_name=f"{sweep_name}_rank{rank}",
        )
        for v, pids in wave_claims.items():
            claims[v].update(pids)
    return claims


def build_shortcut_deterministic(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    tree: RootedForest,
    diameter: int,
    ledger: CostLedger,
    congestion_budget: Optional[int] = None,
    block_target: Optional[int] = None,
    max_iterations: Optional[int] = None,
    grow_budget: bool = True,
) -> ShortcutBuildResult:
    """Algorithm 8 end to end, returning a verified shortcut.

    :func:`~repro.core.corefast.build_shortcut_by_doubling` — the same
    driver as :func:`~repro.core.corefast.build_shortcut_randomized`, so
    the two cannot drift — with a bottom-up heavy-path sweep as the claim
    step (threshold ``max(1, budget)``) and verification on the
    deterministic PA variant.
    """
    return build_shortcut_by_doubling(
        engine, net, partition, division, tree, diameter, ledger,
        _heavy_path_claim(engine, tree, ledger), "det_verify", None,
        congestion_budget, block_target, max_iterations, grow_budget, None,
    )


def _heavy_path_claim(
    engine: Engine, tree: RootedForest, ledger: CostLedger
) -> Callable[..., List[Set[int]]]:
    """Algorithm 8's claim step, its heavy-path decomposition charged up
    front: a bottom-up sweep seeded at the representatives."""
    hpd = build_heavy_path_decomposition(engine, tree, ledger)

    def claim(iteration, active, claimants, budget):
        seeds: Dict[int, Set[int]] = {}
        for rep, pid in claimants:
            seeds.setdefault(rep, set()).add(pid)
        return _bottom_up_sweep(
            engine, tree, hpd, seeds, max(1, budget), ledger,
            sweep_name=f"alg8_{iteration}",
        )

    return claim
