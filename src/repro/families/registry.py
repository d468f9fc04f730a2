"""The family registry: one row per Table 1/2 graph family.

Single source of truth for everything per-family: the Table 1 (b, c)
envelope (reusing :data:`repro.analysis.theory.TABLE1` — the formulas live
there and only there), the Table 2 runtime strings, the canonical family
parameter used by the repo's workloads (genus of the torus, treewidth of
the k-tree benchmarks, pathwidth of the ladder) and the provider factory
realizing the construction.

``repro.core.shortcuts.shortcut_hint_for_family`` — historically a second
copy of the Table 1 formulas — now delegates to :func:`family_hint` here,
so envelope changes happen in exactly one place
(:mod:`repro.analysis.theory`) and construction changes in exactly one
place (this registry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..analysis.theory import (
    TABLE1,
    TABLE2_DETERMINISTIC,
    TABLE2_RANDOMIZED,
    FamilyBounds,
)
from .provider import (
    GeneralProvider,
    PathwidthProvider,
    ShortcutProvider,
    TreeRestrictedProvider,
    TreewidthProvider,
)


@dataclass(frozen=True)
class Family:
    """One graph family: its envelopes, parameter and construction."""

    name: str
    #: Table 1 envelope — the exact object from ``analysis.theory.TABLE1``.
    bounds: FamilyBounds
    #: Table 2 runtime strings (deterministic / randomized).
    det_rounds: str
    rand_rounds: str
    #: Canonical parameter of the repo's workloads for this family
    #: (genus g, treewidth t, pathwidth p; 1 where unused).
    default_param: int
    #: Provider factory: ``make_provider(param, claim_small)`` builds the
    #: construction.  ``claim_small`` drops the parts-below-D exemption on
    #: the family constructions (benchmarks use it to exhibit envelopes on
    #: small instances); the general pipeline's exemption is intrinsic to
    #: Algorithm 4, so its factory documents and ignores the flag.
    make_provider: Callable[[int, bool], ShortcutProvider]
    description: str

    def provider(
        self, param: Optional[int] = None, claim_small: bool = False
    ) -> ShortcutProvider:
        """A fresh provider for this family (``param`` defaults canonical)."""
        return self.make_provider(
            self.default_param if param is None else param, claim_small
        )

    def hint(
        self, n: int, diameter: int, param: Optional[int] = None
    ) -> Tuple[int, int]:
        """The Table 1 (b, c) envelope as integers (ceil of the bounds)."""
        p = self.default_param if param is None else param
        b = max(1, math.ceil(self.bounds.block_parameter(n, diameter, p)))
        c = max(1, math.ceil(self.bounds.congestion(n, diameter, p)))
        return b, c


FAMILIES: Dict[str, Family] = {
    "general": Family(
        name="general",
        bounds=TABLE1["general"],
        det_rounds=TABLE2_DETERMINISTIC["general"],
        rand_rounds=TABLE2_RANDOMIZED["general"],
        default_param=1,
        # claim_small is ignored: Algorithm 4 exempts parts below D
        # structurally (the "active" rule), not as an option.
        make_provider=lambda param, claim_small=False: GeneralProvider(),
        description="arbitrary connected graphs: the mode-selected default "
        "pipeline, CoreFast or Algorithms 7-8 (b=1, c=sqrt n)",
    ),
    "planar": Family(
        name="planar",
        bounds=TABLE1["planar"],
        det_rounds=TABLE2_DETERMINISTIC["planar"],
        rand_rounds=TABLE2_RANDOMIZED["planar"],
        default_param=1,
        make_provider=lambda param, claim_small=False: (
            TreeRestrictedProvider(genus=0, claim_small=claim_small)
        ),
        description="planar graphs (grids, triangulated grids): BFS-layer "
        "Steiner climbs capped at the O~(D) envelope",
    ),
    "genus": Family(
        name="genus",
        bounds=TABLE1["genus"],
        det_rounds=TABLE2_DETERMINISTIC["genus"],
        rand_rounds=TABLE2_RANDOMIZED["genus"],
        default_param=1,
        make_provider=lambda param, claim_small=False: (
            TreeRestrictedProvider(
                genus=max(1, param), claim_small=claim_small
            )
        ),
        description="bounded-genus graphs (tori): the planar construction "
        "with a sqrt(g)-widened congestion cap",
    ),
    "treewidth": Family(
        name="treewidth",
        bounds=TABLE1["treewidth"],
        det_rounds=TABLE2_DETERMINISTIC["treewidth"],
        rand_rounds=TABLE2_RANDOMIZED["treewidth"],
        default_param=3,
        make_provider=lambda param, claim_small=False: (
            TreewidthProvider(width=param, claim_small=claim_small)
        ),
        description="treewidth-t families (k-trees, series-parallel): "
        "tree-decomposition certificate, cap O(t log n)",
    ),
    "pathwidth": Family(
        name="pathwidth",
        bounds=TABLE1["pathwidth"],
        det_rounds=TABLE2_DETERMINISTIC["pathwidth"],
        rand_rounds=TABLE2_RANDOMIZED["pathwidth"],
        default_param=2,
        make_provider=lambda param, claim_small=False: (
            PathwidthProvider(width=param, claim_small=claim_small)
        ),
        description="pathwidth-p families (ladders, caterpillars): "
        "path-decomposition certificate, cap O(p)",
    ),
}


def get_family(name: str) -> Family:
    """Look up a family row; KeyError lists the known names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None


def family_hint(
    name: str, n: int, diameter: int, param: Optional[int] = None
) -> Tuple[int, int]:
    """Table 1's (b, c) envelope for a family, as integers.

    The construction-target hint formerly duplicated in
    ``repro.core.shortcuts.shortcut_hint_for_family``; both entry points
    now evaluate the one ``analysis.theory.TABLE1`` formula set.
    """
    return get_family(name).hint(n, diameter, param=param)


def provider_for(
    name: str, param: Optional[int] = None, claim_small: bool = False
) -> ShortcutProvider:
    """A fresh provider realizing ``name``'s Table 1 construction.

    ``claim_small=True`` drops the parts-below-D exemption on the family
    constructions (no-op for ``general``, whose exemption is structural).
    """
    return get_family(name).provider(param=param, claim_small=claim_small)
