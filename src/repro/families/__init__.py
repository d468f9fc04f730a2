"""Family-aware shortcut construction (Tables 1-2 / Appendix C).

The paper's structural headline is that planar, bounded-genus,
bounded-treewidth and bounded-pathwidth graphs admit low-congestion
shortcuts of quality O~(D) — far below the general (b=1, c=sqrt n)
pipeline.  This package realizes those constructions behind a strategy
API:

* :mod:`~repro.families.provider` — the :class:`ShortcutProvider` API and
  its one concrete class, :class:`FamilyProvider`, pluggable into
  ``PASolver.prepare(..., shortcut_provider=...)``;
* :mod:`~repro.families.decompose` — the decomposition oracles (BFS
  layerings, tree/path decompositions) with validity certificates;
* :mod:`~repro.families.steiner` — the shared capped Steiner-climb core;
* :mod:`~repro.families.registry` — one row per family (oracle, cap,
  phase names, canonical parameter; the Table 1/2 envelopes stay in
  :mod:`repro.analysis.theory`) and :func:`provider_for`, the one factory.
"""

from .decompose import (
    BFSLayering,
    DecompositionError,
    PathDecomposition,
    TreeDecomposition,
    bfs_layering,
    path_decomposition,
    tree_decomposition,
)
from .provider import FamilyProvider, ShortcutProvider
from .registry import FAMILIES, Family, family_hint, get_family, provider_for
from .steiner import (
    build_steiner_shortcut,
    steiner_edges_of_part,
    steiner_up_parts,
)

__all__ = [
    "BFSLayering",
    "DecompositionError",
    "FAMILIES",
    "Family",
    "FamilyProvider",
    "PathDecomposition",
    "ShortcutProvider",
    "TreeDecomposition",
    "bfs_layering",
    "build_steiner_shortcut",
    "family_hint",
    "get_family",
    "path_decomposition",
    "provider_for",
    "steiner_edges_of_part",
    "steiner_up_parts",
    "tree_decomposition",
]
