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

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..congest.engine import Context, Engine, Inbox
from ..congest.ledger import CostLedger
from .queued import QueuedProgram
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

    def priority_depth(self, node: int, pid: int) -> int:
        """Root depth used for BlockRoute priority; large if unknown."""
        depth_of = self.__dict__.get("_depth_of")
        if depth_of is None:
            depth_of = self._depth_of = dict(zip(
                zip(self.node.tolist(), self.pid.tolist()),
                self.depth.tolist(),
            ))
        return depth_of.get((node, pid), 1 << 30)

    def packed_depths(self, stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(node * stride + pid, depth)`` columns, ascending by key."""
        keys = self.node * np.int64(stride) + self.pid
        order = np.argsort(keys)
        return keys[order], self.depth[order]

    def block_counts(self, partition_size: int) -> List[int]:
        """Per-part number of counting tokens delivered (= nontrivial blocks)."""
        return np.bincount(self.token_pid, minlength=partition_size).tolist()


class _AnnotateProgram(QueuedProgram):
    """Flood (root_depth, root_uid) down every block; route count tokens."""

    name = "annotate_blocks"

    def __init__(self, shortcut: Shortcut, capacity: int = 1) -> None:
        super().__init__(capacity=capacity)
        self.shortcut = shortcut
        self.tree = shortcut.tree
        self.net = shortcut.tree.net
        self.down = shortcut.down_parts()
        #: Root depth per annotated ``(node, pid)``, and the ``(node,
        #: pid)`` of each counting token, in the order they were learned.
        self._depth_of: Dict[Tuple[int, int], int] = {}
        self._tokens: List[Tuple[int, int]] = []

    @property
    def out(self) -> BlockAnnotations:
        """The learned rows as columns (read once the run is over)."""
        rows = np.array(
            [key + (depth,) for key, depth in self._depth_of.items()],
            dtype=np.int64,
        ).reshape(-1, 3)
        tokens = np.array(self._tokens, dtype=np.int64).reshape(-1, 2)
        return BlockAnnotations(*rows.T, *tokens.T)

    def _children_for(self, node: int, pid: int) -> List[int]:
        return [c for c, parts in self.down[node].items() if pid in parts]

    def _emit(self, ctx: Context, node: int, pid: int, depth: int, uid: int,
              counting: bool) -> None:
        """Record annotation at ``node`` and propagate downward."""
        key = (node, pid)
        if key in self._depth_of:
            return
        self._depth_of[key] = depth
        children = self._children_for(node, pid)
        if counting and not children:
            self._tokens.append(key)
        count_child = min(children) if (counting and children) else None
        for child in children:
            payload = ("ann", pid, depth, uid, child == count_child)
            self.enqueue(ctx, node, child, (depth, pid), payload)

    def on_start(self, ctx: Context) -> None:
        for v in range(self.net.n):
            down_parts = set()
            for parts in self.down[v].values():
                down_parts.update(parts)
            for pid in sorted(down_parts):
                if pid not in self.shortcut.up_parts[v]:
                    # v is the root of its part-pid block: no H_i parent
                    # edge but at least one H_i child edge.
                    self._emit(
                        ctx, v, pid, self.tree.depth[v], self.net.uid[v], True
                    )

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid, depth, uid, counting = payload
            self._emit(ctx, node, pid, depth, uid, counting)


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
        engine, ledger, _AnnotateProgram.name, AnnotateArrayKernel,
        _AnnotateProgram, (shortcut, capacity), 16 + 4 * (depth + congestion),
        capacity=capacity, rounds_per_tick=rounds_per_tick,
    ).out
