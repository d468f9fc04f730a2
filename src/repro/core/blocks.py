"""Distributed block identification and annotation.

After shortcut construction every node knows, per incident tree edge,
which parts' ``H_i`` contain it.  That makes block membership local, but
two further pieces of knowledge are required:

1. **Root depth per (node, part)** — the BlockRoute scheduling of
   Lemma 4.2 prioritizes packets by the depth of their block's root, so
   every block participant must learn it.
2. **One counting token per block** — the block-parameter verification of
   Algorithm 2 has each part count its blocks; we let each block deliver
   exactly one "+1" to a part member, who contributes it to a PA sum.

Both are established by a single broadcast wave per block: each block root
(a node with an ``H_i`` child edge but no ``H_i`` parent edge — locally
checkable) floods ``(root_depth, root_uid)`` down its block's edges.  The
counting token additionally follows the minimum-child chain downward until
it reaches a node with no further ``H_i`` child edge; for shortcuts built
by claiming (both our constructions), such terminal nodes are exactly the
claim origins, i.e. part members.

What is stored (:class:`BlockAnnotations`) is what is read afterwards:
the root depth per annotated (node, part) and where each counting token
ended.  The root's uid is only sent — every annotation message carries
it and is metered for it — and never stored, since nothing reads it.

Cost: one message in each direction... strictly, one annotation message per
``H_i`` edge plus one counting token per block-path, queued with the
Lemma 4.2 discipline — O(D + c) rounds, O(sum_i |H_i|) messages.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from .shortcuts import Shortcut
from .treeops import run_phase


def _frozen(values) -> np.ndarray:
    col = np.ascontiguousarray(values, dtype=np.int64).reshape(-1).view()
    col.flags.writeable = False
    return col


class BlockAnnotations:
    """Node-local block knowledge produced by :func:`annotate_blocks`.

    Immutable int64 columns, one row per annotated ``(node, part)`` key
    and one per counting token:

    ``node``, ``pid``, ``depth`` — ``node`` lies on a block of part
    ``pid`` whose root sits at tree depth ``depth``;
    ``token_node``, ``token_pid`` — ``token_node`` holds the counting
    token of one part-``token_pid`` block (it contributes +1 to that
    part's block count).

    The root's uid travels in every annotation message (and is metered
    in its bits), but nothing reads it after the wave, so it is not
    stored.
    ``verified`` — ``(division, shortcut, route)`` once PA has summed the
    tokens (Algorithm 2, inside a shortcut build): the
    :class:`~repro.core.wave.RouteMemo` that solve learned on that
    division and shortcut, which a :class:`~repro.core.pa.PASetup` over
    the same two objects adopts as its route.

    The columns are read-only, as :class:`~repro.core.shortcuts.Shortcut`'s
    ``up_parts`` are, so the per-key depth lookup is built once.
    """

    def __init__(self, node, pid, depth, token_node, token_pid) -> None:
        self.node = _frozen(node)
        self.pid = _frozen(pid)
        self.depth = _frozen(depth)
        self.token_node = _frozen(token_node)
        self.token_pid = _frozen(token_pid)
        self.verified: Optional[Tuple[object, object, object]] = None

    def packed_depths(self, stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(node * stride + pid, depth)`` columns, ascending by key."""
        keys = self.node * np.int64(stride) + self.pid
        order = np.argsort(keys)
        return keys[order], self.depth[order]

    def block_counts(self, partition_size: int) -> List[int]:
        """Per-part number of counting tokens delivered (= nontrivial blocks)."""
        return np.bincount(self.token_pid, minlength=partition_size).tolist()


def annotate_blocks(
    engine: Engine,
    shortcut: Shortcut,
    ledger: CostLedger,
    capacity: int = 1,
    rounds_per_tick: int = 1,
) -> BlockAnnotations:
    """Run the annotation wave; returns node-local block knowledge.

    Must be re-run whenever the shortcut changes (each CoreFast repetition,
    each Algorithm 8 outer iteration).
    """
    from .array_queue import AnnotateArrayKernel

    depth = shortcut.tree.height()
    congestion = shortcut.congestion()
    return run_phase(
        engine, ledger, "annotate_blocks", AnnotateArrayKernel,
        (shortcut, capacity), 16 + 4 * (depth + congestion),
        capacity=capacity, rounds_per_tick=rounds_per_tick,
    ).out
