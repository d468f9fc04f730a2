"""The family registry: one row per Table 1/2 graph family.

Everything that differs between the family constructions is data on a
:class:`Family` row — the decomposition oracle, the congestion cap, the
ledger names of the phases it charges, the canonical parameter of the
repo's workloads (genus of the torus, treewidth of the k-tree benchmarks,
pathwidth of the ladder) — and :func:`provider_for` is the one factory
that turns a row into a provider.  The Table 1 (b, c) envelopes and the
Table 2 runtime strings are *not* copied here: they live in
:mod:`repro.analysis.theory`, keyed by the same family names, and
:func:`family_hint` reads them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

from ..analysis.theory import TABLE1
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..core.pa import build_general_shortcut
from ..core.trees import RootedForest
from .decompose import bfs_layering, path_decomposition, tree_decomposition
from .provider import FamilyProvider, ShortcutProvider


# ----------------------------------------------------------------------
# Certificate oracles: ``(net, tree, param)`` -> the validated certificate,
# the width it achieved (the structural phase is charged ``height(T) +
# width`` rounds) and that phase's message count.
# ----------------------------------------------------------------------
def _layering(net: Network, tree: RootedForest, genus: int):
    layering = bfs_layering(net, tree.roots[0])
    layering.validate(net)
    # Distributed form of the layering: the BFS wave that built the tree
    # already delivered every node its depth; broadcasting the layer
    # count back down costs one sweep.
    return layering, 1, net.n


def _tree_decomposition(net: Network, tree: RootedForest, width: int):
    if width < 1:
        raise ValueError("width must be positive")
    decomposition = tree_decomposition(net)
    decomposition.validate(net)
    if decomposition.width > width:
        raise ValueError(
            f"tree-decomposition oracle achieved width "
            f"{decomposition.width}, above the declared {width}"
        )
    # One elimination sweep exchanging each node's bag with neighbors.
    return (
        decomposition, decomposition.width,
        sum(len(bag) for bag in decomposition.bags),
    )


def _path_decomposition(net: Network, tree: RootedForest, width: int):
    if width < 1:
        raise ValueError("width must be positive")
    # Bag-size guard handed to the oracle: a graph whose double-BFS order
    # produces bags beyond this is not a pathwidth workload.
    decomposition = path_decomposition(net, width_guard=max(64, 4 * width))
    decomposition.validate(net)
    if decomposition.width > 2 * width + 1:
        raise ValueError(
            f"path-decomposition oracle achieved width "
            f"{decomposition.width}, far above the declared {width}"
        )
    return decomposition, decomposition.width, net.n


def _layering_cap(genus: int, n: int, diameter: int) -> int:
    """``sqrt(max(1, g)) * D * ceil(log2 n)``, the planar / genus envelope."""
    return max(
        2,
        math.ceil(math.sqrt(max(1, genus)) * max(1, diameter)) * ceil_log2(n),
    )


@dataclass(frozen=True)
class Family:
    """One graph family: its canonical parameter and its construction.

    The construction fields are what :meth:`FamilyProvider.build` reads;
    the ``general`` row has none (its provider is the general pipeline's
    own function, see :func:`provider_for`).
    """

    #: Canonical parameter of the repo's workloads for this family
    #: (genus g, treewidth t, pathwidth p; 1 where unused).
    default_param: int
    #: ``.name`` of the row's provider, as EXPERIMENTS.md prints it.
    provider_name: str
    #: Certificate oracle (see above): ``certify(net, tree, param)``.
    certify: Optional[Callable] = None
    #: Ledger name of the structural phase charged for the certificate.
    phase: str = ""
    #: ``cap(n, diameter, param, width)``: the per-edge congestion cap of
    #: the Steiner climbs — the Table 1 envelope at the *achieved* width,
    #: never below 2 (a climb can always share an edge once).
    cap: Optional[Callable[[int, int, int, int], int]] = None
    #: ``claims(param)``: the climbs are charged as ``{claims}_claims``.
    claims: Optional[Callable[[int], str]] = None


FAMILIES: Dict[str, Family] = {
    # Arbitrary connected graphs: the mode-selected default pipeline,
    # CoreFast or Algorithms 7-8 (b=1, c=sqrt n).
    "general": Family(default_param=1, provider_name="general"),
    # Planar graphs (grids, triangulated grids): BFS-layer Steiner climbs
    # capped at the O~(D) envelope; the parameter is unused.
    "planar": Family(
        default_param=1, provider_name="tree_restricted",
        certify=_layering, phase="family_layering",
        cap=lambda n, d, g, width: _layering_cap(0, n, d),
        claims=lambda g: "planar",
    ),
    # Bounded-genus graphs (tori): the planar construction with a
    # sqrt(g)-widened cap — and, up to genus 1, under the planar name.
    "genus": Family(
        default_param=1, provider_name="tree_restricted",
        certify=_layering, phase="family_layering",
        cap=lambda n, d, g, width: _layering_cap(g, n, d),
        claims=lambda g: "planar" if g <= 1 else "genus",
    ),
    # Treewidth-t families (k-trees, series-parallel): tree-decomposition
    # certificate, cap 2 t log n with t the width the oracle achieved.
    "treewidth": Family(
        default_param=3, provider_name="treewidth",
        certify=_tree_decomposition, phase="family_tree_decomposition",
        cap=lambda n, d, t, width: max(2, 2 * max(1, width) * ceil_log2(n)),
        claims=lambda t: "treewidth",
    ),
    # Pathwidth-p families (ladders, caterpillars): path-decomposition
    # certificate (double-BFS linear order), cap 2 (p + 1) — the only
    # envelope without a log factor.
    "pathwidth": Family(
        default_param=2, provider_name="pathwidth",
        certify=_path_decomposition, phase="family_path_decomposition",
        cap=lambda n, d, p, width: max(2, 2 * (width + 1)),
        claims=lambda p: "pathwidth",
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
    """Table 1's (b, c) envelope for a family, as integers (ceil).

    Evaluates the one formula set in ``analysis.theory.TABLE1``; used as
    construction targets by benchmarks.  ``param`` is the family
    parameter (genus g, treewidth t, pathwidth p), each family's
    canonical workload parameter when omitted.
    """
    family = get_family(name)
    p = family.default_param if param is None else param
    bounds = TABLE1[name]
    return (
        max(1, math.ceil(bounds.block_parameter(n, diameter, p))),
        max(1, math.ceil(bounds.congestion(n, diameter, p))),
    )


def provider_for(
    name: str, param: Optional[int] = None, claim_small: bool = False
) -> ShortcutProvider:
    """The provider realizing ``name``'s Table 1 construction.

    ``claim_small=True`` drops the parts-below-D exemption on the family
    constructions; it is a no-op for ``general``, where Algorithm 4
    exempts parts below D structurally (the "active" rule).
    """
    family = get_family(name)
    if family.certify is None:
        # No class for the general row: ``build`` is the function
        # ``prepare`` runs when handed no provider, so the two ledgers are
        # equal phase for phase in either mode (pinned by tests).
        return SimpleNamespace(name=name, build=build_general_shortcut)
    return FamilyProvider(
        family, family.default_param if param is None else param, claim_small
    )
