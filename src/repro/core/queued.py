"""Per-edge message queues with priority scheduling (Lemma 4.2 discipline).

Several phases route many parts' packets over shared spanning-tree edges.
CONGEST permits one message per directed edge per round, so contending
packets must queue.  Lemma 4.2's BlockRoute resolves contention by
forwarding the packet whose block root is shallowest, breaking ties by
block id; the randomized variant instead allows a capacity of
``Theta(log n)`` per meta-round (Section 4.2).

:class:`QueuedProgram` factors this discipline out: subclasses call
:meth:`enqueue` instead of ``ctx.send``; the base class flushes up to
``capacity`` packets per directed edge per tick in priority order, waking
itself while queues are nonempty, and reports every dequeue to
:meth:`on_dequeue` so subclasses can record which edges physically carried
which packets (the wave reversal depends on this record).

The scalar programs are the reference the array kernels are held to, so
the queues have one representation: ``{src: {dst: heap of (priority,
seq, payload)}}``.  A node's flush visits its backlogged edges in
insertion order (a drained edge's key is deleted, so a later packet on
it comes last).  The array twin,
:class:`~repro.core.array_queue.EdgePool`, follows the same rule and
keeps a no-backlog path of its own.

Subclasses that need a hook on *every* activation — mail or not —
override :meth:`on_activate` (e.g. the PA wave's lazy leader start)
rather than ``on_node``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from ..congest.engine import Context, Inbox, Program

Priority = Tuple  # lexicographically ordered


class QueuedProgram(Program):
    """Engine program with per-directed-edge priority queues."""

    def __init__(self, capacity: int = 1) -> None:
        self.capacity = capacity
        #: src -> dst -> heap of (priority, seq, payload).  A dst key is
        #: removed as soon as its heap drains, so ``_queues[v]`` holds
        #: exactly v's backlogged edges.
        self._queues: Dict[int, Dict[int, List[Tuple[Priority, int, object]]]] = {}
        self._active_node = -1
        self._seq = 0

    # ------------------------------------------------------------------
    # Subclass API
    # ------------------------------------------------------------------
    def enqueue(
        self, ctx: Context, src: int, dst: int, priority: Priority, payload: object
    ) -> None:
        """Queue ``payload`` for directed edge (src, dst).

        A packet enqueued while ``src`` itself is being activated needs no
        wakeup: the flush at the end of this very activation either sends
        it this tick (and a sent message keeps the engine ticking) or
        leaves a backlog (and the flush re-wakes the node itself).
        Packets injected from outside — ``on_start``, or on behalf of
        another node — do wake their sender, which is what drives the
        first flush.
        """
        self._seq += 1
        heappush(
            self._queues.setdefault(src, {}).setdefault(dst, []),
            (priority, self._seq, payload),
        )
        if src != self._active_node:
            ctx.wake(src)

    def on_dequeue(self, src: int, dst: int, payload: object) -> None:
        """Hook: called when a queued packet is physically sent."""

    def on_activate(self, ctx: Context, node: int) -> None:
        """Hook: called at the start of every activation (mail or not)."""

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        """Subclass message handler (replaces ``on_node``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        self._active_node = node
        self.on_activate(ctx, node)
        if inbox:
            self.handle(ctx, node, inbox)
        self._active_node = -1
        self._flush(ctx, node)

    def _flush(self, ctx: Context, node: int) -> None:
        """Send up to ``capacity`` packets per backlogged edge of ``node``
        in ``(priority, seq)`` order; re-wake ``node`` while any remain."""
        by_dst = self._queues.get(node)
        if by_dst is None:
            return
        for dst in list(by_dst):
            queue = by_dst[dst]
            for _ in range(min(self.capacity, len(queue))):
                payload = heappop(queue)[2]
                ctx.send(node, dst, payload)
                self.on_dequeue(node, dst, payload)
            if not queue:
                del by_dst[dst]
        if by_dst:
            ctx.wake(node)
        else:
            del self._queues[node]
