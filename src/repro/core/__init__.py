"""The paper's primary contribution: Part-Wise Aggregation machinery.

Layering (bottom to top): trees/treeops (forest primitives), spanning_tree
(BFS + leader election), shortcuts (Definitions 2.1-2.3), subparts /
subparts_det (Definition 4.1 constructions), blocks (annotation),
corefast / det_shortcut (constructions), wave (Algorithm 1), pa
(Theorem 1.2 facade), no_leader (Algorithm 9).
"""

from .aggregation import (
    AND,
    Aggregation,
    MAX,
    MAX_TUPLE,
    MIN,
    MIN_TUPLE,
    OR,
    SUM,
    XOR,
)
from .blocks import BlockAnnotations, annotate_blocks
from .corefast import (
    ClaimProgram,
    ShortcutBuildResult,
    build_shortcut_randomized,
    verify_block_parameters,
)
from .pa import (
    DETERMINISTIC,
    PABatchResult,
    PAResult,
    PASetup,
    PASolver,
    RANDOMIZED,
    product_aggregation,
    solve_pa,
)
from .shortcuts import Shortcut, full_tree_shortcut
from .spanning_tree import (
    SpanningTreeResult,
    bfs_tree,
    elect_leader_and_bfs_tree,
)
from .subparts import SubPartDivision, build_subpart_division_randomized
from .treeops import claim_bfs
from .trees import ABSENT, ROOT, RootedForest
from .wave import PAWaveResult, run_pa_waves

__all__ = [
    "ABSENT",
    "AND",
    "Aggregation",
    "BlockAnnotations",
    "ClaimProgram",
    "DETERMINISTIC",
    "MAX",
    "MAX_TUPLE",
    "MIN",
    "MIN_TUPLE",
    "OR",
    "PABatchResult",
    "PAResult",
    "PASetup",
    "PASolver",
    "PAWaveResult",
    "RANDOMIZED",
    "ROOT",
    "RootedForest",
    "SUM",
    "Shortcut",
    "ShortcutBuildResult",
    "SpanningTreeResult",
    "SubPartDivision",
    "XOR",
    "annotate_blocks",
    "bfs_tree",
    "build_shortcut_randomized",
    "build_subpart_division_randomized",
    "claim_bfs",
    "elect_leader_and_bfs_tree",
    "full_tree_shortcut",
    "product_aggregation",
    "run_pa_waves",
    "solve_pa",
    "verify_block_parameters",
]
