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

Cost: one message in each direction... strictly, one annotation message per
``H_i`` edge plus one counting token per block-path, queued with the
Lemma 4.2 discipline — O(D + c) rounds, O(sum_i |H_i|) messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..congest.engine import Context, Engine, Inbox
from ..congest.ledger import CostLedger
from .queued import QueuedProgram
from .shortcuts import Shortcut
from .treeops import run_phase


@dataclass
class BlockAnnotations:
    """Node-local block knowledge produced by :func:`annotate_blocks`.

    ``root_depth[(v, pid)]`` — depth (in T) of the root of v's part-``pid``
    block, for every node v on that block.
    ``block_id[(v, pid)]`` — the root's uid, identifying the block.
    ``count_tokens[v]`` — list of part ids for which v terminates a
    counting token (v contributes +1 to that part's block count).
    ``verified`` — ``(division, shortcut, route)`` once PA has summed the
    tokens (Algorithm 2, inside a shortcut build): the
    :class:`~repro.core.wave.RouteMemo` that solve learned on that
    division and shortcut, which a :class:`~repro.core.pa.PASetup` over
    the same two objects adopts as its route.
    """

    root_depth: Dict[Tuple[int, int], int] = field(default_factory=dict)
    block_id: Dict[Tuple[int, int], int] = field(default_factory=dict)
    count_tokens: Dict[int, List[int]] = field(default_factory=dict)
    verified: Optional[Tuple[object, object, object]] = field(
        default=None, repr=False, compare=False
    )

    def priority_depth(self, node: int, pid: int) -> int:
        """Root depth used for BlockRoute priority; large if unknown."""
        return self.root_depth.get((node, pid), 1 << 30)

    def block_counts(self, partition_size: int) -> List[int]:
        """Per-part number of counting tokens delivered (= nontrivial blocks)."""
        counts = [0] * partition_size
        for _node, pids in self.count_tokens.items():
            for pid in pids:
                counts[pid] += 1
        return counts


class _AnnotateProgram(QueuedProgram):
    """Flood (root_depth, root_uid) down every block; route count tokens."""

    name = "annotate_blocks"

    def __init__(self, shortcut: Shortcut, capacity: int = 1) -> None:
        super().__init__(capacity=capacity)
        self.shortcut = shortcut
        self.tree = shortcut.tree
        self.net = shortcut.tree.net
        self.down = shortcut.down_parts()
        self.out = BlockAnnotations()
        self._seen: set = set()

    def _children_for(self, node: int, pid: int) -> List[int]:
        return [c for c, parts in self.down[node].items() if pid in parts]

    def _emit(self, ctx: Context, node: int, pid: int, depth: int, uid: int,
              counting: bool) -> None:
        """Record annotation at ``node`` and propagate downward."""
        key = (node, pid)
        if key in self._seen:
            return
        self._seen.add(key)
        self.out.root_depth[key] = depth
        self.out.block_id[key] = uid
        children = self._children_for(node, pid)
        if counting and not children:
            self.out.count_tokens.setdefault(node, []).append(pid)
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
