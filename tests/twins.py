"""The scalar twins: the event-driven reference program of every kernel phase.

The package runs each kernel phase on one implementation, its array
kernel.  The programs the kernels were written against live here as
oracles — the readable form of Algorithms 1-2, of Algorithm 1's wave,
reversal, replay and all-reduce (Lemma 4.4), of block annotation (Lemma
4.2) and of CoreFast claiming (Algorithm 4) — with their kernels'
arguments, result accessors, names, wire traffic and ledgers.
:func:`twin_phases` runs a whole pipeline on them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.congest.arrays import PayloadColumns
from repro.congest.engine import Context, Inbox, Program
from repro.congest.network import Network
from repro.core import array_queue, array_wave, corefast, treeops
from repro.core.aggregation import Aggregation, merge_inboxes
from repro.core.array_kernels import send_columns
from repro.core.blocks import BlockAnnotations
from repro.core.queued import QueuedProgram
from repro.core.shortcuts import Shortcut
from repro.core.subparts import SubPartDivision
from repro.core.trees import ABSENT, ROOT, RootedForest
from repro.core.wave import WaveIndex
from repro.graphs.partitions import Partition


@contextmanager
def twin_phases(active: bool = True) -> Iterator[None]:
    """Inside the block (if ``active``) every kernel phase runs its twin.

    Rebinds the kernel names the package reads at call time; a test that
    substitutes a twin patches it in this module.
    """
    with pytest.MonkeyPatch.context() as patch:
        for module, name, twin in (
            (treeops, "BroadcastArrayKernel", BroadcastProgram),
            (treeops, "ConvergecastArrayKernel", ConvergecastProgram),
            (treeops, "ClaimBfsArrayKernel", ClaimBfsProgram),
            (treeops, "FloodMinArrayKernel", FloodMinProgram),
            (treeops, "CrossRoundArrayKernel", CrossRoundProgram),
            (corefast, "ClaimArrayKernel", ClaimProgram),
            (array_queue, "AnnotateArrayKernel", _AnnotateProgram),
            (array_wave, "wave_kernels", lambda fold: (
                WaveProgram, ReverseProgram, ReplayProgram, AllReduceProgram,
            )),
        ) if active else ():
            patch.setattr(module, name, twin)
        yield


def masked_neighbors(arrays, edge_mask: np.ndarray) -> List[Tuple[int, ...]]:
    """Per node, its neighbors over the CSR slots ``edge_mask`` keeps.

    Ascending within a node, as ``Network.neighbors`` is: what a scalar
    program iterates where a kernel calls :func:`expand_neighbors`.
    """
    kept = arrays.adj[edge_mask].tolist()
    counts = np.bincount(
        arrays.src_of_slot[edge_mask], minlength=arrays.degrees.size
    )
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [tuple(kept[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def down_parts(shortcut) -> List[Dict[int, frozenset]]:
    """Per node: map child -> parts using the (child, node) edge."""
    down: List[Dict[int, frozenset]] = [{} for _ in range(shortcut.tree.net.n)]
    for v, parts in enumerate(shortcut.up_parts):
        if parts:
            down[shortcut.tree.parent[v]][v] = parts
    return down


def wave_boundary(division) -> List[Tuple[int, ...]]:
    """The division's wave boundary as per-node tuples."""
    starts, counts, flat = (col.tolist() for col in division.wave_boundary_csr)
    return [tuple(flat[lo:lo + k]) for lo, k in zip(starts, counts)]


def priority_depth(ann, node: int, pid: int) -> int:
    """Root depth used for BlockRoute priority; large if unknown."""
    depth_of = ann.__dict__.get("_depth_of")
    if depth_of is None:
        depth_of = ann._depth_of = dict(zip(
            zip(ann.node.tolist(), ann.pid.tolist()),
            ann.depth.tolist(),
        ))
    return depth_of.get((node, pid), 1 << 30)


def start_values(route, values: Sequence[object]) -> List[object]:
    """Per key id, its node's value if ``route.live()``, else ``None``."""
    return [
        values[v] if own else None
        for v, own in zip(route.node.tolist(), route.live().tolist())
    ]


def pairs(route) -> List[Tuple[int, int]]:
    """The keys as ``(node, part)`` pairs, in key-id order."""
    return list(zip(route.node.tolist(), route.part.tolist()))


def out_lists(route) -> List[List[int]]:
    """Per key id, the destinations it sent to, in send order."""
    dst = route.out_dst.tolist()
    return [
        dst[lo:lo + count] for lo, count in zip(
            route.out_starts.tolist(), route.out_counts.tolist()
        )
    ]


class BroadcastProgram(Program):
    """Broadcast a value from each tree root down its tree.

    ``root_values[r]`` is the value injected at root ``r``; after the phase
    ``received[v]`` holds the value of v's tree for every forest node.
    """

    name = "tree_broadcast"

    def __init__(self, forest: RootedForest, root_values: Dict[int, object]) -> None:
        self.forest = forest
        self.root_values = root_values
        self.received: Dict[int, object] = {}

    def on_start(self, ctx: Context) -> None:
        for root, value in self.root_values.items():
            if self.forest.parent[root] != ROOT:
                raise ValueError(f"{root} is not a root of the forest")
            self.received[root] = value
            for child in self.forest.children[root]:
                ctx.send(root, child, value)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, value in inbox:
            self.received[node] = value
            for child in self.forest.children[node]:
                ctx.send(node, child, value)

    def received_at(self, nodes: Sequence[int]) -> List[object]:
        """What each of ``nodes`` received (``None`` if nothing reached it)."""
        return [self.received.get(v) for v in nodes]


class ConvergecastProgram(Program):
    """Aggregate per-node values up to each tree root.

    After the phase, ``at_root[r]`` is the aggregate over r's tree and
    ``partial[v]`` is the aggregate over v's subtree (useful for subtree
    statistics).  ``values[v]`` may be ``None`` (contributes nothing).
    """

    name = "tree_convergecast"

    def __init__(
        self,
        forest: RootedForest,
        agg: Aggregation,
        values: Sequence[object],
    ) -> None:
        self.forest = forest
        self.agg = agg
        self.values = values
        self.at_root: Dict[int, object] = {}
        self.partial: Dict[int, object] = {}
        self._pending: Dict[int, int] = {}

    def on_start(self, ctx: Context) -> None:
        for v in self.forest.members():
            self._pending[v] = len(self.forest.children[v])
            self.partial[v] = self.values[v]
        for v in self.forest.members():
            if self._pending[v] == 0:
                self._fire(ctx, v)

    def _fire(self, ctx: Context, v: int) -> None:
        parent = self.forest.parent[v]
        if parent == ROOT:
            self.at_root[v] = self.partial[v]
        else:
            ctx.send(v, parent, self.partial[v])

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, value in inbox:
            self.partial[node] = self.agg.merge(self.partial[node], value)
            self._pending[node] -= 1
        if self._pending[node] == 0:
            self._pending[node] = -1  # fire exactly once
            self._fire(ctx, node)


class ClaimBfsProgram(Program):
    """Parallel BFS claiming from multiple sources.

    Each source ``s`` starts with token ``tokens[s]``; tokens propagate one
    hop per round and every unclaimed node adopts the smallest token it
    hears first (ties by token order, which callers arrange to be uid
    order).  ``edge_mask``, a bool per CSR slot of the network's array
    views (``None``: every edge), restricts which edges the BFS may cross
    — e.g. "stay inside part P_i".  ``max_depth`` bounds the claim radius.

    Outputs: ``token_of[v]`` (claim token or None), ``parent_of[v]`` and
    ``depth_of[v]``.  A newly claimed node acks its parent; the ack is
    wire cost only (the parent pointers already name every child).
    """

    name = "claim_bfs"

    def __init__(
        self,
        net: Network,
        tokens: Dict[int, object],
        edge_mask: Optional[np.ndarray] = None,
        max_depth: Optional[int] = None,
    ) -> None:
        self.net = net
        self.tokens = tokens
        self._neighbors = (
            net.neighbors if edge_mask is None
            else masked_neighbors(net.array_views, edge_mask)
        )
        self.max_depth = max_depth
        self.token_of: List[Optional[object]] = [None] * net.n
        self.parent_of: List[int] = [ABSENT] * net.n
        self.depth_of: List[int] = [-1] * net.n

    def _spread(self, ctx: Context, node: int, depth: int, heard=()) -> None:
        if self.max_depth is not None and depth >= self.max_depth:
            return
        payload = ("claim", self.token_of[node], depth + 1)
        for nb in self._neighbors[node]:
            # A neighbor whose claim reached us this tick is claimed already
            # (the parent among them gets the token inside the child ack).
            if nb not in heard:
                ctx.send(node, nb, payload)

    def on_start(self, ctx: Context) -> None:
        for source, token in self.tokens.items():
            self.token_of[source] = token
            self.parent_of[source] = ROOT
            self.depth_of[source] = 0
        for source in self.tokens:
            self._spread(ctx, source, 0)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        best: Optional[Tuple[object, int, int]] = None
        heard = set()
        for sender, payload in inbox:
            if payload[0] == "claim":
                _tag, token, depth = payload
                heard.add(sender)
                candidate = (token, depth, sender)
                if best is None or candidate < best:
                    best = candidate
        if best is None or self.token_of[node] is not None:
            return
        token, depth, sender = best
        self.token_of[node] = token
        self.parent_of[node] = sender
        self.depth_of[node] = depth
        ctx.send(node, sender, ("child", token))
        self._spread(ctx, node, depth, heard)

    def forest(self) -> RootedForest:
        """The claimed BFS forest (roots = sources that claimed anyone)."""
        return RootedForest(self.net, self.parent_of)


class FloodMinProgram(Program):
    """Flood the minimum token through the network.

    Every node given a token starts with it (the rest hold none yet);
    whenever a node hears a smaller token it adopts it, re-points its
    parent at the sender, and re-announces it to every neighbor except
    those whose message this tick carried that very token: they hold it
    already, and a token sent back to its holder carries no news.  (This
    tick's mail is all a node knows of its neighbors: a token at most the
    adopted one delivered earlier would have been adopted then.)  At
    quiescence every connected component agrees on its minimum token and the
    parent pointers form a BFS-like tree rooted at the minimum's holder;
    skipping the echoes changes neither, only the message count.

    This is the flood of the candidate election that substitutes for
    Kutten et al.'s (see docs/architecture.md, "Deviations from the
    paper"): only the self-sampled candidates hold a token at the start,
    so a node adopts O(log log n) times in expectation instead of about
    ln n; same O(D) rounds, and messages are metered.
    """

    name = "flood_min"

    def __init__(self, net: Network, tokens: Dict[int, object]) -> None:
        self.net = net
        self.initial = tokens
        #: Per node: the least token heard (``None``: none) and who sent it.
        self.best: List[Optional[object]] = [None] * net.n
        self.parent_of: List[int] = [ABSENT] * net.n

    def _announce(self, ctx: Context, node: int, heard=()) -> None:
        token = self.best[node]
        for nb in self.net.neighbors[node]:
            if nb not in heard:
                ctx.send(node, nb, token)

    def on_start(self, ctx: Context) -> None:
        for node, token in self.initial.items():
            self.best[node] = token
            self.parent_of[node] = ROOT
        for node in self.initial:
            self._announce(ctx, node)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        improved = False
        for sender, token in inbox:
            if self.best[node] is None or token < self.best[node]:
                self.best[node] = token
                self.parent_of[node] = sender
                improved = True
        if improved:
            token = self.best[node]
            self._announce(ctx, node, {s for s, t in inbox if t == token})


class CrossRoundProgram(Program):
    """One round: send a payload across each given directed graph edge.

    ``sends`` lists ``(src, dst, payload)`` triples, or holds the same
    column-wise as ``(src array, dst array, payload sequence)``;
    ``received[v]`` is v's inbox of ``(sender, payload)`` pairs,
    sender-sorted.
    """

    name = "cross_round"

    def __init__(self, sends) -> None:
        self.sends = sends
        self.received: Dict[int, List[Tuple[int, object]]] = {}

    def on_start(self, ctx: Context) -> None:
        sends = self.sends
        if isinstance(sends, tuple):
            src, dst, payloads = sends
            sends = zip(src.tolist(), dst.tolist(), payloads)
        for src, dst, payload in sends:
            ctx.send(src, dst, payload)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        self.received.setdefault(node, []).extend(inbox)

    @property
    def delivered(self) -> Tuple[np.ndarray, np.ndarray, PayloadColumns]:
        """``received`` as ``(src, dst, payloads)`` columns, row for row,
        in the sends' layout: the sends that arrived, stably sorted by
        ``(dst, src)`` — nodes ascending, sender-sorted within an inbox."""
        src, dst, payloads = send_columns(self.sends)
        arrived = {(u, v) for v, inbox in self.received.items() for u, _ in inbox}
        rows = np.flatnonzero(
            [key in arrived for key in zip(src.tolist(), dst.tolist())]
        )
        order = rows[np.lexsort((src[rows], dst[rows]))]
        return src[order], dst[order], payloads.take(order)

    def merged(self, agg: Aggregation, n: int) -> Sequence[object]:
        """Per node, the ``agg``-merge of the ``(tag, value)`` payloads it
        received; see :func:`~repro.core.aggregation.merge_inboxes`.
        """
        return merge_inboxes(self.received, agg, n)


class ClaimProgram(QueuedProgram):
    """One CoreFast run: representatives claim tree edges upward."""

    name = "corefast_claim"

    def __init__(
        self,
        tree: RootedForest,
        claimants: Sequence[Tuple[int, int]],
        theta: int,
        priority_of: Dict[int, int],
    ) -> None:
        """``claimants``: (node, part) pairs; ``theta``: per-edge cap."""
        super().__init__(capacity=1)
        self.tree = tree
        self.claimants = claimants
        self.theta = theta
        self.priority_of = priority_of
        n = tree.net.n
        #: parts admitted onto each node's parent edge this run
        self.claimed_up: List[Set[int]] = [set() for _ in range(n)]
        self._handled: Set[Tuple[int, int]] = set()

    def _try_claim(self, ctx: Context, node: int, pid: int) -> None:
        key = (node, pid)
        if key in self._handled:
            return
        self._handled.add(key)
        if self.tree.parent[node] < 0:
            return  # reached the root of T
        if len(self.claimed_up[node]) >= self.theta:
            return  # saturated: the claim is truncated here
        self.claimed_up[node].add(pid)
        self.enqueue(
            ctx,
            node,
            self.tree.parent[node],
            (self.priority_of.get(pid, pid),),
            ("c", pid),
        )

    def on_start(self, ctx: Context) -> None:
        for node, pid in self.claimants:
            self._try_claim(ctx, node, pid)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid = payload
            self._try_claim(ctx, node, pid)


class _AnnotateProgram(QueuedProgram):
    """Flood (root_depth, root_uid) down every block; route count tokens."""

    name = "annotate_blocks"

    def __init__(self, shortcut: Shortcut, capacity: int = 1) -> None:
        super().__init__(capacity=capacity)
        self.shortcut = shortcut
        self.tree = shortcut.tree
        self.net = shortcut.tree.net
        self.down = down_parts(shortcut)
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


class WaveProgram(QueuedProgram):
    """Token broadcast from every part leader (Algorithm 1 lines 1-20)."""

    name = "pa_wave"

    def __init__(
        self,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        shortcut: Shortcut,
        annotations: BlockAnnotations,
        leader_tokens: Dict[int, object],
        delays: Optional[Dict[int, int]] = None,
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.net = net
        self.partition = partition
        self.division = division
        self.shortcut = shortcut
        self.ann = annotations
        self.leader_tokens = leader_tokens
        self.delays = delays or {}
        self._started: Set[int] = set()

        self.forest = division.forest
        self.part_of = partition.part_of
        self.rep_of = division.rep_of
        self.down = down_parts(shortcut)

        self.has_token = bytearray(net.n)
        #: Keys ``(node, pid)`` whose climb is won: by a ku or an inject.
        self.kup_done: Set[Tuple[int, int]] = set()
        self.kdown_done: Set[Tuple[int, int]] = set()
        #: Per key ``(node, pid)``: every neighbor that has sent the node
        #: pid's token.
        self.heard: Dict[Tuple[int, int], Set[int]] = {}

        #: The route's rows (:class:`WaveIndex`): ``(node * stride + pid,
        #: dst)`` per packet sent, ``(node * stride + pid, src)`` per
        #: packet received.
        self.stride = max(1, partition.num_parts)
        self.out_rows: Tuple[List[int], List[int]] = ([], [])
        self.in_rows: Tuple[List[int], List[int]] = ([], [])
        # The candidate boundary edges of line 15.
        self._boundary: List[Tuple[int, ...]] = wave_boundary(division)

    def on_dequeue(self, src: int, dst: int, payload: object) -> None:
        # Once per physically sent packet: record the wave edge.
        keys, dsts = self.out_rows
        keys.append(src * self.stride + payload[1])
        dsts.append(dst)

    def _send(self, ctx: Context, src: int, dst: int, tag: str, pid: int,
              token: object, priority: Tuple = (0, 0)) -> None:
        self.enqueue(ctx, src, dst, priority, (tag, pid, token))

    def _prio(self, v: int, pid: int) -> Tuple[int, int]:
        return (priority_depth(self.ann, v, pid), pid)

    # ------------------------------------------------------------------
    # Protocol actions.  ``heard`` is every neighbor that has sent the
    # node pid's token: none of them is sent it back.
    # ------------------------------------------------------------------
    def _gain_token(self, ctx: Context, v: int, pid: int, token: object,
                    heard, via_block: bool) -> None:
        """First token receipt at part member ``v``: hand it on at once.

        Down the sub-part tree and across the boundary; a non-rep also up
        toward its representative, a representative into its block unless
        the token came through the block (Observation 4.3: reps only).
        """
        self.has_token[v] = 1
        for child in self.forest.children[v]:
            if child not in heard:
                self._send(ctx, v, child, "su", pid, token)
        for nb in self._boundary[v]:
            if nb not in heard:
                self._send(ctx, v, nb, "bd", pid, token)
        if self.rep_of[v] != v:
            parent = self.forest.parent[v]
            if parent not in heard:
                self._send(ctx, v, parent, "ru", pid, token)
        elif not via_block:
            self.kup_done.add((v, pid))
            self._climb(ctx, v, pid, token, heard)

    def _climb(self, ctx: Context, v: int, pid: int, token: object,
               heard) -> None:
        """``v`` won pid's climb: ku up unless v is the block root, and kd
        down its H_pid children, both now."""
        if pid in self.shortcut.up_parts[v]:
            parent = self.shortcut.tree.parent[v]
            if parent not in heard:
                self._send(
                    ctx, v, parent, "ku", pid, token, self._prio(v, pid)
                )
        self._block_down(ctx, v, pid, token, heard)

    def _block_down(self, ctx: Context, v: int, pid: int, token: object,
                    heard) -> None:
        """Flood the token down v's H_pid child edges (once per key)."""
        key = (v, pid)
        if key in self.kdown_done:
            return
        self.kdown_done.add(key)
        prio = self._prio(v, pid)
        for child, parts in self.down[v].items():
            if pid in parts and child not in heard:
                self._send(ctx, v, child, "kd", pid, token, prio)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        for pid in range(self.partition.num_parts):
            leader = self.division.part_leader[pid]
            delay = self.delays.get(pid, 0)
            if delay > 1:
                # Timer wheel: one activation exactly at the delay tick,
                # instead of re-waking (and re-activating) every tick.
                ctx.wake_at(leader, delay)
            else:
                ctx.wake(leader)

    def _leader_start(self, ctx: Context, leader: int) -> None:
        pid = self.part_of[leader]
        if ctx.tick < self.delays.get(pid, 0):
            # Defensive: with wake_at-based scheduling the leader is first
            # activated at its delay tick, so this cannot trigger unless a
            # message reaches it earlier (in which case it re-arms).
            ctx.wake(leader)
            return
        self._started.add(pid)
        # pid's token exists nowhere before this: nobody has sent it.
        self._gain_token(ctx, leader, pid, self.leader_tokens[pid], (), False)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        keys, srcs = self.in_rows
        heard_of = self.heard
        for sender, payload in inbox:
            pid = payload[1]
            keys.append(node * self.stride + pid)
            srcs.append(sender)
            heard = heard_of.get((node, pid))
            if heard is None:
                heard_of[(node, pid)] = {sender}
            else:
                heard.add(sender)
        member = self.part_of[node]
        for _sender, payload in inbox:
            tag, pid, token = payload
            key = (node, pid)
            # This tick's senders included.
            heard = heard_of[key]
            if tag == "ku":
                if key in self.kup_done:
                    continue
                self.kup_done.add(key)
                if member == pid and not self.has_token[node]:
                    self._gain_token(ctx, node, pid, token, heard, True)
                self._climb(ctx, node, pid, token, heard)
            elif tag == "kd":
                if member == pid and not self.has_token[node]:
                    self._gain_token(ctx, node, pid, token, heard, True)
                self._block_down(ctx, node, pid, token, heard)
            elif not self.has_token[node]:
                # ru, su, bd: the node's own part.
                self._gain_token(ctx, node, pid, token, heard, False)

    def on_activate(self, ctx: Context, node: int) -> None:
        pid = self.part_of[node]
        if node == self.division.part_leader[pid] and pid not in self._started:
            # The leader's own sends are flushed at the end of this
            # activation, so they ship this tick.
            self._leader_start(ctx, node)

    def route(self) -> WaveIndex:
        """The finished broadcast's wire record."""
        parts = range(self.partition.num_parts)
        return WaveIndex(
            self.part_of,
            [self.division.part_leader[pid] for pid in parts],
            np.isin(parts, list(self._started)),
            np.frombuffer(self.has_token, dtype=np.uint8) != 0,
            *self.out_rows, *self.in_rows,
        )


class ReverseProgram(QueuedProgram):
    """Aggregation by exact time-reversal of a route (wire or forest)."""

    name = "pa_reverse"

    def __init__(
        self,
        route: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.index = route
        self.agg = agg
        # Per key id, in the canonical sorted (node, pid) order.  Sorting
        # is restriction-stable (a shard sees the same relative order as
        # the full run) and relabel-invariant under order-preserving
        # node/part relabelings — the property the sharded backend's
        # bit-for-bit parity rests on.
        self.keys = pairs(route)
        self.kid = {key: k for k, key in enumerate(self.keys)}
        self.parent = route.parent.tolist()
        #: Answers a key still waits for: one per message it sent.
        self.expected = route.out_counts.tolist()
        self.acc = start_values(route, values)
        self.results: Dict[int, object] = {}

    def _fire(self, ctx: Context, k: int) -> None:
        v, pid = self.keys[k]
        parent = self.parent[k]
        if parent < 0:
            self.results[pid] = self.acc[k]
        else:
            self.enqueue(ctx, v, parent, (0,), ("a", pid, self.acc[k]))

    def on_start(self, ctx: Context) -> None:
        # Answer every non-parent in-edge immediately with None, under a
        # tag of its own: the tag is how a sender learns which of its
        # wave edges are forest edges (answered "a") and which are not.
        index, keys = self.index, self.keys
        for k, src in zip(index.fan_kid.tolist(), index.fan_src.tolist()):
            v, pid = keys[k]
            self.enqueue(ctx, v, src, (0,), ("n", pid, None))
        for k, left in enumerate(self.expected):
            if left == 0:
                self._fire(ctx, k)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid, value = payload
            k = self.kid[(node, pid)]
            self.acc[k] = self.agg.merge(self.acc[k], value)
            self.expected[k] -= 1
            if self.expected[k] == 0:
                self._fire(ctx, k)


class ReplayProgram(QueuedProgram):
    """Broadcast each part's aggregate along a route's edges."""

    name = "pa_replay"

    def __init__(
        self,
        route: WaveIndex,
        results: Dict[int, object],
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.index = route
        self.results = results
        self.kid = {key: k for k, key in enumerate(pairs(route))}
        self.out = out_lists(route)
        self.part_of = route.part_of.tolist()
        self.delivered: Dict[int, object] = {}
        self._done: Set[int] = set()

    def _forward(self, ctx: Context, v: int, pid: int, value: object) -> None:
        k = self.kid[(v, pid)]
        if k in self._done:
            return
        self._done.add(k)
        if self.part_of[v] == pid:
            self.delivered[v] = value
        for dst in self.out[k]:
            self.enqueue(ctx, v, dst, (0,), ("r", pid, value))

    def on_start(self, ctx: Context) -> None:
        leaders = self.index.leaders.tolist()
        for pid, value in self.results.items():
            self._forward(ctx, leaders[pid], pid, value)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid, value = payload
            self._forward(ctx, node, pid, value)

    def reached(self) -> int:
        """How many part members the replay delivered an aggregate to."""
        return len(self.delivered)

    def value_at_node(self) -> List[object]:
        """Per node, the aggregate its part's replay delivered to it."""
        return [self.delivered.get(v) for v in range(self.index.n)]


class AllReduceProgram(QueuedProgram):
    """Every key of a part ends holding its aggregate: one pass, a forest.

    A key's forest neighbors are its wave parent and its wave children.  It
    sends each of them exactly one message.  Once it has heard from all but
    one, it sends that one a ``"u"`` partial: its own value merged with
    everything the others sent.  Once it has heard from all, it holds the
    part's total and hands it on as ``"d"`` to every neighbor it has not
    sent to.  A ``"d"`` is the total; a ``"u"`` from the very neighbor a key
    sent its own partial to is the other half of the part, and the two
    halves merge parent side first, so both ends hold the same value even
    under an order-sensitive merge.  Decisions are taken after a node's
    whole inbox, key by key in order of first arrival.  The ``#keys -
    #parts`` forest edges carry one message each way, in diam(T) ticks
    where no two parts queue on one edge.
    """

    name = "pa_allreduce"

    def __init__(
        self,
        route: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.index = route
        self.agg = agg
        self.keys = pairs(route)
        self.kid = {key: k for k, key in enumerate(self.keys)}
        self.parent = route.parent.tolist()
        self.part_of = route.part_of.tolist()
        #: Per key id: its forest neighbors, parent first, children in
        #: send order; those it has not heard from; the one its partial
        #: went to (-1: none yet).
        self.neighbors = [
            ([] if parent < 0 else [parent]) + out
            for parent, out in zip(self.parent, out_lists(route))
        ]
        self.waiting = [set(nbrs) for nbrs in self.neighbors]
        self.sent_to = [-1] * len(self.keys)
        self.acc = start_values(route, values)
        #: Part totals, the first key of each part to hold one.
        self.results: Dict[int, object] = {}
        self.delivered: Dict[int, object] = {}

    def _partial(self, ctx: Context, k: int, dst: int) -> None:
        v, pid = self.keys[k]
        self.sent_to[k] = dst
        self.enqueue(ctx, v, dst, (0,), ("u", pid, self.acc[k]))

    def _finish(self, ctx: Context, k: int, payload) -> None:
        """Key ``k`` holds its part's total (``payload[2]``): pass it on."""
        v, pid = self.keys[k]
        self.results.setdefault(pid, payload[2])
        if self.part_of[v] == pid:
            self.delivered[v] = payload[2]
        skip = self.sent_to[k]
        for dst in self.neighbors[k]:
            if dst != skip:
                self.enqueue(ctx, v, dst, (0,), payload)

    def on_start(self, ctx: Context) -> None:
        # Canonical sorted (node, pid) order, restriction-stable as the
        # reversal's.
        for k, nbrs in enumerate(self.neighbors):
            if len(nbrs) == 1:
                self._partial(ctx, k, nbrs[0])
            elif not nbrs:
                self._finish(ctx, k, ("d", self.keys[k][1], self.acc[k]))

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        merge = self.agg.merge
        # key id -> the total payload this tick brought the key, or None
        # where it only brought partials to fold.
        got: Dict[int, Optional[tuple]] = {}
        for sender, payload in inbox:
            tag, pid, value = payload
            k = self.kid[(node, pid)]
            if tag == "d":
                got[k] = payload
            elif self.sent_to[k] == sender:
                # The meeting edge: both ends merge parent side first.
                acc = self.acc[k]
                if self.parent[k] == sender:
                    total = merge(value, acc)
                else:
                    total = merge(acc, value)
                got[k] = ("d", pid, total)
            else:
                self.acc[k] = merge(self.acc[k], value)
                self.waiting[k].discard(sender)
                got.setdefault(k, None)
        for k, payload in got.items():
            if payload is not None:
                self._finish(ctx, k, payload)
                continue
            waiting = self.waiting[k]
            if not waiting:
                self._finish(ctx, k, ("d", self.keys[k][1], self.acc[k]))
            elif len(waiting) == 1:
                (dst,) = waiting
                self._partial(ctx, k, dst)

    def reached(self) -> int:
        """How many part members ended holding their part's total."""
        return len(self.delivered)

    def value_at_node(self) -> List[object]:
        """Per node, the total its part's pass left it holding."""
        return [self.delivered.get(v) for v in range(self.index.n)]
