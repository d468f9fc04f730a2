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

Two internal representations, chosen per flush:

* **batch fast path** — packets a node enqueues while it is being
  activated go to a plain per-activation list.  If the node has no edge
  backlog and the batch has no duplicate destinations, every packet is
  simply the head of its (empty) edge queue, so the flush sends them
  directly: no heaps, no per-edge dicts.  This is the steady state of
  every forwarding wave.
* **per-edge heaps** — any backlog, any duplicate destination, or any
  enqueue from outside the owner's activation (``on_start`` injections)
  falls back to ``{src: {dst: heap of (priority, seq, payload)}}``, the
  faithful Lemma 4.2 discipline.  Selection order is identical in both
  representations; only the bookkeeping cost differs.

Subclasses that need a hook on *every* activation — mail or not —
override :meth:`on_activate` (e.g. the PA wave's lazy leader start)
rather than ``on_node``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

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
        #: Packets enqueued during the current activation of
        #: ``_active_node``: (dst, priority, seq, payload).
        self._batch: List[Tuple[int, Priority, int, object]] = []
        #: Scratch (dst, payload) list reused by the slow-path flush.
        self._outgoing: List[Tuple[int, object]] = []
        self._active_node = -1
        self._seq = 0
        # Skip the per-packet on_dequeue dispatch when the subclass never
        # overrode the hook (most programs don't record dequeues); same
        # for the per-activation on_activate hook.
        self._notify_dequeue = (
            type(self).on_dequeue is not QueuedProgram.on_dequeue
        )
        self._notify_activate = (
            type(self).on_activate is not QueuedProgram.on_activate
        )

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
        if src == self._active_node:
            self._batch.append((dst, priority, self._seq, payload))
        else:
            by_dst = self._queues.get(src)
            if by_dst is None:
                by_dst = self._queues[src] = {}
            queue = by_dst.get(dst)
            if queue is None:
                queue = by_dst[dst] = []
            heappush(queue, (priority, self._seq, payload))
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
        if self._notify_activate:
            self.on_activate(ctx, node)
        if inbox:
            self.handle(ctx, node, inbox)
        self._active_node = -1
        self._flush(ctx, node)

    def _flush(self, ctx: Context, node: int) -> None:
        """Ship this activation's batch / backlog (up to capacity per edge)."""
        batch = self._batch
        by_dst = self._queues.get(node)
        if by_dst is None:
            if not batch:
                return
            # Fast path: no backlog.  With all-distinct destinations each
            # packet heads its own empty queue, so send directly.
            k = len(batch)
            if k == 1:
                dst, _priority, _seq, payload = batch[0]
                ctx.send(node, dst, payload)
                if self._notify_dequeue:
                    self.on_dequeue(node, dst, payload)
                batch.clear()
                return
            if k == 2:
                distinct = batch[0][0] != batch[1][0]
            else:
                distinct = len({entry[0] for entry in batch}) == k
            if distinct:
                ctx.send_batch(node, batch)
                if self._notify_dequeue:
                    on_dequeue = self.on_dequeue
                    for dst, _priority, _seq, payload in batch:
                        on_dequeue(node, dst, payload)
                batch.clear()
                return
        # Slow path: merge the batch into the per-edge heaps, then flush
        # up to ``capacity`` packets per edge in (priority, seq) order.
        if batch:
            if by_dst is None:
                by_dst = self._queues[node] = {}
            for dst, priority, seq, payload in batch:
                queue = by_dst.get(dst)
                if queue is None:
                    queue = by_dst[dst] = []
                heappush(queue, (priority, seq, payload))
            batch.clear()
        elif not by_dst:
            return
        capacity = self.capacity
        outgoing = self._outgoing
        exhausted: Optional[List[int]] = None
        for dst, queue in by_dst.items():
            if capacity == 1 or len(queue) == 1:
                outgoing.append((dst, heappop(queue)[2]))
            else:
                sent = 0
                while queue and sent < capacity:
                    outgoing.append((dst, heappop(queue)[2]))
                    sent += 1
            if not queue:
                if exhausted is None:
                    exhausted = [dst]
                else:
                    exhausted.append(dst)
        ctx.send_batch(node, outgoing)
        if self._notify_dequeue:
            on_dequeue = self.on_dequeue
            for dst, payload in outgoing:
                on_dequeue(node, dst, payload)
        outgoing.clear()
        if exhausted is not None:
            for dst in exhausted:
                del by_dst[dst]
        if by_dst:
            ctx.wake(node)
        else:
            del self._queues[node]
