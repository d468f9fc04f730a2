"""Engine programs over rooted forests: broadcast, convergecast, BFS.

These are the communication workhorses every higher-level algorithm calls.
All of them operate on *forests* — many trees in parallel in a single
phase — because the paper's algorithms always run all parts / sub-parts /
fragments concurrently, relying on the trees being edge-disjoint.  The
one-round exchange over explicit edges that glues two forest phases
together (:func:`cross_round`) lives here too.

Every phase of the pipeline — these and the queued programs of the
shortcut and wave layers — runs through :func:`run_phase`, which takes the
array kernel or its scalar twin from :func:`_kernel`: the one place that
chooses, from the kernel's own
:class:`~repro.congest.arrays.KernelDecline` of the payload (and the
engine's ``runs_kernels``, false only on the tests' twin oracle).  A
fault plan masks both loops alike, so it chooses nothing.  Twins share
constructor arguments and result accessors, so outputs and ledger are
the same either way.

Costs (metered, but also the design targets):

* :func:`run_broadcast` — rounds = max tree height, messages = #non-root
  nodes reached.
* :func:`run_convergecast` — rounds = max tree height + 1, messages =
  #non-root nodes.
* :func:`claim_bfs` — rounds <= depth limit + 2, messages <= 2m + n
  (each node announces its claim once per incident edge, less the
  neighbors whose claims reached it, plus one parent-ack).
* :func:`cross_round` — 1 round, one message per send.
* :func:`announce_labels` — a :func:`cross_round`: one message per
  (changed node, neighbor it has to tell); no round when nobody sends.
* :func:`flood_min` — O(D) rounds to quiescence; messages metered.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import KernelDecline, PayloadColumns, note_kernel_fallback
from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .aggregation import Aggregation, merge_inboxes
from .array_kernels import (
    BroadcastArrayKernel,
    ClaimBfsArrayKernel,
    ConvergecastArrayKernel,
    CrossRoundArrayKernel,
    FloodMinArrayKernel,
    masked_neighbors,
    send_columns,
)
from .trees import ABSENT, ROOT, RootedForest


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


class MergeFloodProgram(Program):
    """Joining trees re-root at their chosen endpoint and adopt a label.

    ``joins`` maps a joining tree to ``(u, v, label)``: ``u`` is its
    endpoint of the chosen edge, ``v`` the far endpoint in the tree it
    joins, ``label`` the tuple every member adopts.  ``u`` sends
    ``("att",)`` to ``v`` (the receipt itself tells ``v`` it gained a
    child) and floods ``("mg", *label)`` over its own tree; each node's
    flood predecessor becomes its new parent, so one message per node
    re-roots, attaches and relabels.  After the phase ``new_parent`` and
    ``new_label`` hold what changed.
    """

    def __init__(
        self,
        forest: RootedForest,
        joins: Dict[int, Tuple[int, int, tuple]],
        name: str,
    ) -> None:
        self.forest = forest
        self.joins = joins
        self.name = name
        self.new_parent: Dict[int, int] = {}
        self.new_label: Dict[int, tuple] = {}

    def _flood(self, ctx: Context, node: int, sender: int, label: tuple) -> None:
        if node in self.new_parent:
            return
        self.new_parent[node] = sender
        self.new_label[node] = label
        parent = self.forest.parent[node]
        for nb in self.forest.children[node] + ((parent,) if parent >= 0 else ()):
            if nb != sender:
                ctx.send(node, nb, ("mg", *label))

    def on_start(self, ctx: Context) -> None:
        for u, v, label in self.joins.values():
            ctx.send(u, v, ("att",))
            self._flood(ctx, u, v, label)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for sender, payload in inbox:
            if payload[0] == "mg":
                self._flood(ctx, node, sender, payload[1:])


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
        """``received`` as ``(src, dst, payloads)`` columns, row for row.

        The one round delivers every send, to nodes in ascending order
        and sender-sorted within an inbox: the sends, stably sorted by
        ``(dst, src)``.  :class:`KernelDecline` if no layout holds the
        payloads.
        """
        src, dst, payloads = send_columns(self.sends)
        order = np.lexsort((src, dst))
        return src[order], dst[order], payloads.take(order)

    def merged(self, agg: Aggregation, n: int) -> Sequence[object]:
        """Per node, the ``agg``-merge of the ``(tag, value)`` payloads it
        received; see :func:`~repro.core.aggregation.merge_inboxes`.
        """
        return merge_inboxes(self.received, agg, n)


def _kernel(engine: Engine, phase: str, build: Callable[[], object]):
    """What ``build`` makes for ``phase``, or ``None``.

    ``None`` means the caller's other implementation runs, the scalar
    twin: because ``build`` declined the payload — which is noted on the
    trace, with the reason, as ``kernel_fallback`` — or because the
    engine does not run kernels (the tests' twin oracle).  No other
    function reads ``engine.runs_kernels`` to choose an implementation.
    """
    if not engine.runs_kernels:
        return None
    try:
        return build()
    except KernelDecline as decline:
        note_kernel_fallback(phase, decline.reason)
        return None


def run_phase(
    engine: Engine,
    ledger: CostLedger,
    name: str,
    kernel: Callable[..., Program],
    twin: Callable[..., Program],
    args: tuple,
    max_ticks: int,
    **budget: int,
):
    """Run and charge phase ``name``; returns the finished program.

    The program is ``kernel(*args)`` or, on an engine that does not run
    kernels or when the kernel declines ``args``, ``twin(*args)`` — the
    two share constructor arguments and result accessors.  ``budget`` is
    ``Engine.run``'s ``capacity`` / ``rounds_per_tick``.
    """
    program = _kernel(engine, name, lambda: kernel(*args))
    if program is None:
        program = twin(*args)
    program.name = name
    ledger.charge(engine.run(program, max_ticks=max_ticks, **budget))
    return program


def run_broadcast(
    engine: Engine,
    forest: RootedForest,
    root_values: Dict[int, object],
    ledger: CostLedger,
    name: str = "tree_broadcast",
):
    """Run a forest broadcast phase; returns the finished program.

    Either a :class:`BroadcastProgram` or its array twin: both offer
    ``received`` and ``received_at(nodes)``.
    """
    return run_phase(
        engine, ledger, name, BroadcastArrayKernel, BroadcastProgram,
        (forest, root_values), forest.height() + 2,
    )


def run_convergecast(
    engine: Engine,
    forest: RootedForest,
    agg: Aggregation,
    values: Sequence[object],
    ledger: CostLedger,
    name: str = "tree_convergecast",
):
    """Run a forest convergecast; returns the finished program.

    Either a :class:`ConvergecastProgram` or its array twin: both offer
    ``at_root`` and ``partial``.  The kernel runs when ``values`` fit a
    column layout that a ufunc folds (see
    :func:`~repro.core.array_kernels.fold_op`).
    """
    return run_phase(
        engine, ledger, name, ConvergecastArrayKernel, ConvergecastProgram,
        (forest, agg, values), forest.height() + 2,
    )


def cross_round(
    engine: Engine,
    sends,
    ledger: CostLedger,
    name: str = "cross_round",
):
    """One round over explicit directed edges; returns the finished program.

    ``sends`` is a list of ``(src, dst, payload)`` triples, or the same
    column-wise: ``(src array, dst array, payload sequence)``, where a
    :class:`~repro.congest.arrays.PayloadColumns` goes to the kernel as it
    is.  The program is a :class:`CrossRoundProgram` or its array twin;
    both offer ``received``, ``delivered`` and ``merged(agg, n)``.
    """
    return run_phase(
        engine, ledger, name, CrossRoundArrayKernel, CrossRoundProgram,
        (sends,), 2,
    )


def announce_labels(
    engine: Engine,
    net: Network,
    labels: np.ndarray,
    ledger: CostLedger,
    name: str,
    changed: Optional[np.ndarray] = None,
    old_part: Optional[np.ndarray] = None,
):
    """One :func:`cross_round` in which nodes tell their neighbors a label.

    ``labels`` is an int64 array, one per node (a part's leader uid, a
    fragment's id).  The senders are the ``changed`` nodes (a bool per
    node; ``None``: every node), each to every neighbor — or, given the
    ``old_part`` of a merge-only relabelling, to its neighbors outside its
    own old part only: those learned the same new label from the merge
    that told the sender.  The send lists are cut from the CSR slot
    arrays.  Returns the finished program, or ``None`` when nobody sends:
    then no phase runs and no round is charged.
    """
    views = net.array_views
    src, dst = views.src_of_slot, views.adj
    keep = np.ones(src.size, dtype=bool) if changed is None else changed[src]
    if old_part is not None:
        keep &= old_part[src] != old_part[dst]
    src, dst = src[keep], dst[keep]
    if not src.size:
        return None
    payloads = PayloadColumns([labels[src]], bare=True)
    return cross_round(engine, (src, dst, payloads), ledger, name=name)


def flood_min(
    engine: Engine,
    net: Network,
    tokens: Dict[int, object],
    ledger: CostLedger,
    name: str = "flood_min",
):
    """Flood the minimum token over every edge; returns the finished program.

    A :class:`FloodMinProgram` or its array twin: both offer ``best`` and
    ``parent_of``.
    """
    return run_phase(
        engine, ledger, name, FloodMinArrayKernel, FloodMinProgram,
        (net, tokens), net.n + 2,
    )


def claim_bfs(
    engine: Engine,
    net: Network,
    tokens: Dict[int, object],
    ledger: CostLedger,
    edge_mask: Optional[np.ndarray] = None,
    max_depth: Optional[int] = None,
    name: str = "claim_bfs",
):
    """Run a parallel claiming BFS; returns the finished program object.

    ``edge_mask`` states the edge restriction once, for both twins: a
    bool per CSR slot of ``net.array_views`` (``None``: all edges).  A
    :class:`ClaimBfsProgram` or its array twin: both offer ``token_of``,
    ``parent_of``, ``depth_of`` and ``forest()``.
    """
    return run_phase(
        engine, ledger, name, ClaimBfsArrayKernel, ClaimBfsProgram,
        (net, tokens, edge_mask, max_depth), (max_depth or net.n) + 3,
    )
