"""The ``ShortcutProvider`` strategy API and the one family provider.

A provider is a pluggable shortcut-construction strategy for
:meth:`repro.core.pa.PASolver.prepare`: given the solver's network, spanning
tree, partition and sub-part division, it returns a
:class:`~repro.core.corefast.ShortcutBuildResult` — a shortcut plus block
annotations, ready for the PA waves.  ``prepare(..., shortcut_provider=p)``
swaps the construction; the default (``None``) is the general pipeline,
:func:`repro.core.pa.build_general_shortcut`.

There is one concrete class, :class:`FamilyProvider`, built by
:func:`repro.families.provider_for`: what differs per Table 1 family is
data on its :class:`~repro.families.registry.Family` row.  Its single
mechanism *enforces* c at the family's envelope and measures b, where the
paper proves each (b, c) by a structure-specific routing argument —
docs/architecture.md, "Deviations from the paper".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..core.corefast import ShortcutBuildResult
from ..core.subparts import SubPartDivision
from ..core.trees import RootedForest
from ..graphs.partitions import Partition
from .steiner import build_steiner_shortcut

if TYPE_CHECKING:
    from .registry import Family


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
    ) -> ShortcutBuildResult:
        raise NotImplementedError


class FamilyProvider(ShortcutProvider):
    """A Table 1 family construction, read off its registry row.

    Every family is the same three steps — run a decomposition oracle and
    validate its certificate, charge the structural phase of assembling
    it, build capped Steiner climbs (:mod:`~repro.families.steiner`) —
    and the row says which oracle, which cap, which phase names.

    ``param`` is the declared family parameter (genus g, treewidth t,
    pathwidth p): the row's oracle raises ``ValueError`` when it cannot
    match it (catching e.g. a non-series-parallel graph fed to the
    treewidth-2 benchmark).

    ``claim_small=True`` drops the parts-smaller-than-D exemption so that
    *every* part builds its subtree — benchmarks use it to exhibit the
    congestion envelope on partitions the exemption would silence.
    """

    def __init__(
        self, family: "Family", param: int, claim_small: bool
    ) -> None:
        self.family = family
        self.name = family.provider_name
        self.param = param
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
    ) -> ShortcutBuildResult:
        row = self.family
        certificate, width, messages = row.certify(net, tree, self.param)
        # Structural cost of assembling the certificate distributively:
        # one sweep of the tree plus a term in the achieved width.
        ledger.charge_local(
            row.phase, rounds=tree.height() + max(1, width), messages=messages
        )
        return build_steiner_shortcut(
            engine, net, partition, tree, diameter, ledger,
            cap=row.cap(net.n, diameter, self.param, width),
            skip_small=not self.claim_small,
            name=row.claims(self.param), certificate=certificate,
        )
