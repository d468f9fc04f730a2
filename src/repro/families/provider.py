"""The ``ShortcutProvider`` strategy API and its concrete providers.

A provider is a pluggable shortcut-construction strategy for
:meth:`repro.core.pa.PASolver.prepare`: given the solver's network, spanning
tree, partition and sub-part division, it returns a
:class:`~repro.core.corefast.ShortcutBuildResult` — a shortcut plus block
annotations, ready for the PA waves.  ``prepare(..., shortcut_provider=p)``
swaps the construction; the default (``None``) is today's pipeline,
bit-for-bit.

Concrete providers, matching the paper's Tables 1-2 rows:

* :class:`GeneralProvider` — the existing general-graph pipeline
  (randomized CoreFast / Algorithm 4, or the deterministic Algorithms 7-8,
  following the mode ``prepare`` runs in) behind the strategy API: the
  default path's own function, so it exists purely to make "general" a
  citizen of the registry.
* :class:`TreeRestrictedProvider` — planar / bounded-genus graphs: Steiner
  climbs on the BFS tree, congestion-capped at the Table 1 envelope
  ``sqrt(g) * D * log n`` derived from a validated BFS layering.
* :class:`TreewidthProvider` — bounded-treewidth families (k-trees,
  series-parallel): cap ``O(t log n)`` with ``t`` the width achieved by
  the tree-decomposition oracle (the validated certificate).
* :class:`PathwidthProvider` — bounded-pathwidth families (ladders,
  caterpillars): cap ``O(p)`` from the path-decomposition certificate.

Substitution note (same spirit as the CoreFast admission tweak documented
in :mod:`repro.core.corefast`): the paper's family constructions prove the
(b, c) pairs exist via structure-specific routing arguments; here a single
mechanism — LCA-pruned Steiner climbs with a per-edge cap set to the
family's congestion envelope — *enforces* c at the envelope and measures
b, with the decomposition oracles supplying the envelope parameter and the
validity certificate.  The benchmarks then check the measured b against
the Table 1 claim rather than assuming it.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..core.corefast import ShortcutBuildResult
from ..core.pa import build_general_shortcut
from ..core.subparts import SubPartDivision
from ..core.trees import RootedForest
from ..graphs.partitions import Partition
from .decompose import bfs_layering, path_decomposition, tree_decomposition
from .steiner import build_steiner_shortcut


def _log2n(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


class ShortcutProvider:
    """Strategy interface: build a shortcut for one (partition, tree) pair.

    Implementations must charge every cost to ``ledger`` — engine phases
    via ``ledger.charge``, oracle-side structural steps via
    ``ledger.charge_local`` — and return a fully annotated
    :class:`ShortcutBuildResult` (the PA waves route on the annotations).
    ``rng`` is the pipeline's random source, ``None`` in a deterministic
    pipeline: there a construction has no randomness to take.
    """

    name: str = "abstract"

    def build(
        self,
        engine: Engine,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        tree: RootedForest,
        diameter: int,
        ledger: CostLedger,
        rng: Optional[random.Random] = None,
        congestion_budget: Optional[int] = None,
        block_target: Optional[int] = None,
    ) -> ShortcutBuildResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class GeneralProvider(ShortcutProvider):
    """The general-graph pipeline behind the strategy API (Table 1 row 1).

    :func:`repro.core.pa.build_general_shortcut` itself — the function
    :meth:`~repro.core.pa.PASolver.prepare` runs when handed no provider —
    so it follows the mode ``prepare`` runs in (CoreFast on the solver's
    random source, Algorithms 7-8 in a deterministic pipeline) and the two
    ledgers are equal phase for phase (pinned by tests).  It exists to
    make "general" a citizen of the registry.
    """

    name = "general"
    build = staticmethod(build_general_shortcut)


class TreeRestrictedProvider(ShortcutProvider):
    """Planar / bounded-genus construction (Table 1 rows 2-3).

    Validates the BFS layering of the solver's spanning tree (the
    decomposition the planar analysis climbs), then builds Steiner climbs
    capped at ``gamma * sqrt(max(1, genus)) * D * ceil(log2 n)`` — the
    Table 1 congestion envelope.  ``genus=0`` (or 1) is the planar cap;
    higher genus widens it by ``sqrt(g)``.

    ``claim_small=True`` drops the parts-smaller-than-D exemption so that
    *every* part builds its subtree — benchmarks use it to exhibit the
    congestion envelope on partitions the exemption would silence.
    """

    name = "tree_restricted"

    def __init__(
        self, genus: int = 0, gamma: float = 1.0, claim_small: bool = False
    ) -> None:
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.genus = genus
        self.gamma = gamma
        self.claim_small = claim_small

    def congestion_cap(self, n: int, diameter: int) -> int:
        factor = math.sqrt(max(1, self.genus))
        return max(2, math.ceil(self.gamma * factor * max(1, diameter))
                   * _log2n(n))

    def build(
        self,
        engine: Engine,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        tree: RootedForest,
        diameter: int,
        ledger: CostLedger,
        rng: Optional[random.Random] = None,
        congestion_budget: Optional[int] = None,
        block_target: Optional[int] = None,
    ) -> ShortcutBuildResult:
        layering = bfs_layering(net, tree.roots[0])
        layering.validate(net)
        # Distributed form of the layering: the BFS wave that built the
        # tree already delivered every node its depth; broadcasting the
        # layer count back down costs one sweep.
        ledger.charge_local(
            "family_layering", rounds=tree.height() + 1, messages=net.n
        )
        cap = self.congestion_cap(net.n, diameter)
        if congestion_budget is not None:
            cap = min(cap, max(2, congestion_budget))
        return build_steiner_shortcut(
            engine, net, partition, tree, diameter, ledger,
            cap=cap, skip_small=not self.claim_small,
            name="planar" if self.genus <= 1 else "genus",
            certificate=layering,
        )


class TreewidthProvider(ShortcutProvider):
    """Bounded-treewidth construction (Table 1 row 4: b=O(t), c=O~(t)).

    Runs the tree-decomposition oracle, validates the certificate, and
    caps Steiner climbs at ``gamma * t * ceil(log2 n)`` where ``t`` is the
    width the oracle achieved.  ``width`` optionally declares the expected
    family parameter; the build raises if the oracle cannot match it
    (catching e.g. a non-series-parallel graph fed to the treewidth-2
    benchmark).
    """

    name = "treewidth"

    def __init__(
        self,
        width: Optional[int] = None,
        gamma: float = 2.0,
        claim_small: bool = False,
    ) -> None:
        if width is not None and width < 1:
            raise ValueError("width must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.width = width
        self.gamma = gamma
        self.claim_small = claim_small

    def build(
        self,
        engine: Engine,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        tree: RootedForest,
        diameter: int,
        ledger: CostLedger,
        rng: Optional[random.Random] = None,
        congestion_budget: Optional[int] = None,
        block_target: Optional[int] = None,
    ) -> ShortcutBuildResult:
        decomposition = tree_decomposition(net)
        decomposition.validate(net)
        if self.width is not None and decomposition.width > self.width:
            raise ValueError(
                f"tree-decomposition oracle achieved width "
                f"{decomposition.width}, above the declared {self.width}"
            )
        t = decomposition.width
        # Structural cost of assembling the decomposition distributively:
        # one elimination sweep exchanging each node's bag with neighbors.
        ledger.charge_local(
            "family_tree_decomposition",
            rounds=tree.height() + max(1, t),
            messages=sum(len(bag) for bag in decomposition.bags),
        )
        cap = max(2, math.ceil(self.gamma * max(1, t)) * _log2n(net.n))
        if congestion_budget is not None:
            cap = min(cap, max(2, congestion_budget))
        return build_steiner_shortcut(
            engine, net, partition, tree, diameter, ledger,
            cap=cap, skip_small=not self.claim_small,
            name="treewidth", certificate=decomposition,
        )


class PathwidthProvider(ShortcutProvider):
    """Bounded-pathwidth construction (Table 1 row 5: b = c = O(p)).

    Runs the path-decomposition oracle (double-BFS linear order) and caps
    Steiner climbs at ``gamma * (p + 1)`` with ``p`` the achieved width —
    the only family whose congestion envelope carries no log factor.
    """

    name = "pathwidth"

    #: Bag-size guard handed to the oracle: a graph whose double-BFS order
    #: produces bags beyond this is not a pathwidth workload.
    WIDTH_GUARD = 64

    def __init__(
        self,
        width: Optional[int] = None,
        gamma: float = 2.0,
        claim_small: bool = False,
    ) -> None:
        if width is not None and width < 1:
            raise ValueError("width must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.width = width
        self.gamma = gamma
        self.claim_small = claim_small

    def build(
        self,
        engine: Engine,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        tree: RootedForest,
        diameter: int,
        ledger: CostLedger,
        rng: Optional[random.Random] = None,
        congestion_budget: Optional[int] = None,
        block_target: Optional[int] = None,
    ) -> ShortcutBuildResult:
        guard = self.WIDTH_GUARD
        if self.width is not None:
            guard = max(guard, 4 * self.width)
        decomposition = path_decomposition(net, width_guard=guard)
        decomposition.validate(net)
        if self.width is not None and decomposition.width > 2 * self.width + 1:
            raise ValueError(
                f"path-decomposition oracle achieved width "
                f"{decomposition.width}, far above the declared {self.width}"
            )
        p = decomposition.width
        ledger.charge_local(
            "family_path_decomposition",
            rounds=tree.height() + max(1, p),
            messages=net.n,
        )
        cap = max(2, math.ceil(self.gamma * (p + 1)))
        if congestion_budget is not None:
            cap = min(cap, max(2, congestion_budget))
        return build_steiner_shortcut(
            engine, net, partition, tree, diameter, ledger,
            cap=cap, skip_small=not self.claim_small,
            name="pathwidth", certificate=decomposition,
        )
