"""Engine programs over rooted forests: broadcast, convergecast, BFS.

These are the communication workhorses every higher-level algorithm calls.
All of them operate on *forests* — many trees in parallel in a single
phase — because the paper's algorithms always run all parts / sub-parts /
fragments concurrently, relying on the trees being edge-disjoint.  The
one-round exchange over explicit edges that glues two forest phases
together (:func:`cross_round`) lives here too.

Every kernel phase — these, and the shortcut and wave layers' queued
phases — has one implementation, its array kernel, built and named by
:func:`build_phase`; a payload no column layout holds raises
:class:`~repro.congest.arrays.KernelDecline`, naming the phase.  The
kernels' event-driven references are test oracles (``tests/twins.py``);
:class:`MergeFloodProgram`, with no kernel, is the scalar program here.

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

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import KernelDecline, PayloadColumns
from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .aggregation import Aggregation
from .array_kernels import (
    BroadcastArrayKernel,
    ClaimBfsArrayKernel,
    ConvergecastArrayKernel,
    CrossRoundArrayKernel,
    FloodMinArrayKernel,
)
from .trees import RootedForest


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


def build_phase(name: str, kernel: Callable[..., Program], *args, **kwargs):
    """``kernel(*args, **kwargs)``, named ``name``.

    A payload the kernel cannot hold is not run some other way: its
    :class:`~repro.congest.arrays.KernelDecline` propagates, naming the
    phase beside the reason.
    """
    try:
        program = kernel(*args, **kwargs)
    except KernelDecline as decline:
        raise KernelDecline(decline.reason, phase=name) from None
    program.name = name
    return program


def run_phase(
    engine: Engine,
    ledger: CostLedger,
    name: str,
    kernel: Callable[..., Program],
    args: tuple,
    max_ticks: int,
    **budget: int,
):
    """Run and charge phase ``name``; returns the finished program.

    The program is ``kernel(*args)`` (:func:`build_phase`); ``budget`` is
    ``Engine.run``'s ``capacity`` / ``rounds_per_tick``.
    """
    program = build_phase(name, kernel, *args)
    ledger.charge(engine.run(program, max_ticks=max_ticks, **budget))
    return program


def run_broadcast(
    engine: Engine,
    forest: RootedForest,
    root_values: Dict[int, object],
    ledger: CostLedger,
    name: str = "tree_broadcast",
):
    """Run a forest broadcast phase; returns the finished
    :class:`~repro.core.array_kernels.BroadcastArrayKernel`, which offers
    ``received`` and ``received_at(nodes)``.
    """
    return run_phase(
        engine, ledger, name, BroadcastArrayKernel,
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
    """Run a forest convergecast; returns the finished
    :class:`~repro.core.array_kernels.ConvergecastArrayKernel`, which
    offers ``at_root`` and ``partial``.  ``values`` must fit a column
    layout that a ufunc folds (see
    :func:`~repro.core.array_kernels.fold_op`).
    """
    return run_phase(
        engine, ledger, name, ConvergecastArrayKernel,
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
    is.  The program is a
    :class:`~repro.core.array_kernels.CrossRoundArrayKernel`; it offers
    ``received``, ``delivered`` and ``merged(agg, n)``.
    """
    return run_phase(
        engine, ledger, name, CrossRoundArrayKernel,
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
    """Flood the minimum token over every edge; returns the finished
    :class:`~repro.core.array_kernels.FloodMinArrayKernel`, which offers
    ``best`` and ``parent_of``.
    """
    return run_phase(
        engine, ledger, name, FloodMinArrayKernel,
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

    ``edge_mask`` is a bool per CSR slot of ``net.array_views``
    (``None``: all edges).  The program is a
    :class:`~repro.core.array_kernels.ClaimBfsArrayKernel`, which offers
    ``token_of``, ``parent_of``, ``depth_of`` and ``forest()``.
    """
    return run_phase(
        engine, ledger, name, ClaimBfsArrayKernel,
        (net, tokens, edge_mask, max_depth), (max_depth or net.n) + 3,
    )
