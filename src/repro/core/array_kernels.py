"""Array-native kernels for the tree workhorses of :mod:`repro.core.treeops`.

Each kernel is the one implementation of its phase: an
:class:`~repro.congest.engine.ArrayProgram` whose ticks are whole-tick
numpy passes.  A kernel that cannot hold its payloads raises
:class:`~repro.congest.arrays.KernelDecline` from its constructor, and
the phase does not run.  Each was written against a scalar program with
the same constructor arguments, result accessors, name, wire traffic and
ledger; those programs are the tests' oracles (``tests/twins.py``), and
the differential parity suite runs both and diffs ledgers and outputs.

A note on emission order: the scalar twins interleave sends per node
(e.g. a claim-BFS node acks its parent, then spreads).  All programs in
this module send at most one message per directed edge per tick, and the
engine's delivery sort is keyed on ``(dst, src)`` — so any batch emission
order is delivered identically, and the kernels are free to emit "all
acks, then all claims".  Kernels for the multi-packet-per-edge queue
discipline live in :mod:`repro.core.array_queue`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import (
    COLUMN_LIMIT,
    ArrayContext,
    Delivered,
    KernelDecline,
    PayloadColumns,
    int_bits_array,
)
from ..congest.engine import ArrayProgram
from ..congest.message import TAG_BITS, TUPLE_OVERHEAD_BITS
from ..congest.network import Network
from .aggregation import (
    AND,
    MAX,
    MAX_TUPLE,
    MIN,
    MIN_TUPLE,
    OR,
    SUM,
    SUM_TUPLE,
    Aggregation,
    merge_inboxes,
)
from .trees import ABSENT, ROOT, RootedForest

#: ``best`` sentinel larger than any token the kernels carry (uids < 2n).
_NO_TOKEN = np.int64(1) << np.int64(62)


def expand_neighbors(
    arrays, nodes: np.ndarray, edge_mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR fan-out: one row per (node, neighbor) pair, node order preserved.

    Returns ``(src, dst, slot)`` where ``slot`` indexes the CSR slot of
    each row; rows follow ``nodes`` order with each node's neighbors
    ascending — exactly the scalar programs' send order.  ``edge_mask``
    (a per-CSR-slot bool array) filters rows without reordering.
    """
    counts = arrays.degrees[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    starts = arrays.offsets[nodes]
    cum = np.cumsum(counts)
    slot = (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - counts, counts)
        + np.repeat(starts, counts)
    )
    src = np.repeat(nodes, counts)
    dst = arrays.adj[slot]
    if edge_mask is not None:
        keep = edge_mask[slot]
        return src[keep], dst[keep], slot[keep]
    return src, dst, slot


def drop_heard(
    src: np.ndarray, dst: np.ndarray, heard: np.ndarray, n: int
) -> np.ndarray:
    """Rows of a fan-out ``src -> dst`` whose receiver was not heard.

    ``heard`` holds the sorted keys ``node * n + sender`` of this tick's
    deliveries that told ``node`` what it now re-announces; the row
    ``node -> sender`` would hand the sender back what it sent.
    """
    keys = src * n + dst
    pos = np.searchsorted(heard, keys)
    hit = pos < heard.size
    hit[hit] = heard[pos[hit]] == keys[hit]
    return ~hit


def _check_magnitudes(col: np.ndarray) -> None:
    """Decline (``overflow``) a column reaching ``COLUMN_LIMIT``."""
    if col.size and (col.max() >= COLUMN_LIMIT or col.min() <= -COLUMN_LIMIT):
        raise KernelDecline("overflow")


def int_column(payloads: Sequence[object]) -> np.ndarray:
    """``payloads`` as one int64 column, or :class:`KernelDecline`.

    Every entry a plain int of magnitude below 2**62: what the token
    kernels (flood-min, claim BFS, the PA wave) carry.
    """
    columns = PayloadColumns.pack(payloads)
    if columns.present is not None:
        raise KernelDecline("none_value")
    if not columns.bare or columns.is_bool[0]:
        raise KernelDecline("non_int")
    _check_magnitudes(columns.cols[0])
    return columns.cols[0]


def _token_columns(tokens: Dict[int, object]) -> Tuple[np.ndarray, np.ndarray]:
    """A ``{node: token}`` dict as ``(nodes, tokens)`` columns, in its order."""
    return (
        np.fromiter(tokens, dtype=np.int64, count=len(tokens)),
        int_column(list(tokens.values())),
    )


class FloodMinArrayKernel(ArrayProgram):
    """Flood-min: the minimum token over every edge.

    Its reference is the flood-min twin in ``tests/twins.py``.
    Tokens must be ints (else: a decline).
    Adoption is strict improvement; the parent is the smallest sender
    among those carrying the tick's minimal token — which is what the
    scalar inbox scan (sender-ascending, update on strict improvement)
    converges to.  The re-announcement skips every sender of the adopted
    token, keyed from this tick's rows alone.
    """

    name = "flood_min"

    def __init__(self, net: Network, tokens: Dict[int, object]) -> None:
        self.net = net
        self._nodes, self._tokens = _token_columns(tokens)
        self.best_array = np.full(net.n, _NO_TOKEN, dtype=np.int64)
        self.parent_array = np.full(net.n, ABSENT, dtype=np.int64)

    def _announce(
        self, actx: ArrayContext, nodes: np.ndarray,
        heard: Optional[np.ndarray] = None,
    ) -> None:
        src, dst, _ = expand_neighbors(actx.arrays, nodes)
        if heard is not None:
            keep = drop_heard(src, dst, heard, self.net.n)
            src, dst = src[keep], dst[keep]
        if src.size == 0:
            return
        tok = self.best_array[src]
        bits = int_bits_array(tok) if actx.strict else None
        actx.emit(src, dst, cols={"tok": tok}, bits=bits)

    def array_start(self, actx: ArrayContext) -> None:
        self.best_array[self._nodes] = self._tokens
        self.parent_array[self._nodes] = ROOT
        self._announce(actx, self._nodes)

    def array_tick(self, actx: ArrayContext, d: Delivered) -> None:
        if len(d) == 0:
            return
        tok = d.cols["tok"]
        # Per-destination winner: minimal (token, sender).
        order = np.lexsort((d.src, tok, d.dst))
        dst_sorted = d.dst[order]
        head = np.ones(dst_sorted.size, dtype=bool)
        head[1:] = dst_sorted[1:] != dst_sorted[:-1]
        win = order[head]
        w_dst = d.dst[win]
        w_tok = tok[win]
        improved = w_tok < self.best_array[w_dst]
        if not improved.any():
            return
        w_dst = w_dst[improved]
        self.best_array[w_dst] = w_tok[improved]
        self.parent_array[w_dst] = d.src[win][improved]
        # Rows carrying what their receiver now holds; (dst, src)-sorted,
        # so their keys are too.
        carried = tok == self.best_array[d.dst]
        heard = d.dst[carried] * self.net.n + d.src[carried]
        # w_dst is ascending (head rows of a dst-sorted order), matching
        # the scalar activation order of the re-announcing nodes.
        self._announce(actx, w_dst, heard)

    @property
    def best(self) -> List[Optional[int]]:
        """Scalar-compatible ``best`` list (``None`` where no token came)."""
        best = self.best_array.tolist()
        for node in np.flatnonzero(self.best_array == _NO_TOKEN).tolist():
            best[node] = None
        return best

    @property
    def parent_of(self) -> List[int]:
        return self.parent_array.tolist()


class ClaimBfsArrayKernel(ArrayProgram):
    """Claim BFS: parallel claiming from many sources.

    Its reference is the claim-BFS twin in ``tests/twins.py``.
    Tokens must be ints (else: a decline), and the
    per-CSR-slot ``edge_mask`` is applied by :func:`expand_neighbors`.
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
        self._sources, self._tokens = _token_columns(tokens)
        self._mask = edge_mask
        self.max_depth = max_depth
        n = net.n
        self.claimed = np.zeros(n, dtype=bool)
        self.token_array = np.full(n, _NO_TOKEN, dtype=np.int64)
        self.parent_array = np.full(n, ABSENT, dtype=np.int64)
        self.depth_array = np.full(n, -1, dtype=np.int64)
        # Scalar-compatible list views, memoized: consumers index them per
        # node (O(n) accesses), so rebuilding on every property read would
        # be quadratic.  Invalidated whenever a tick mutates claim state.
        self._token_list: Optional[List[Optional[int]]] = None
        self._parent_list: Optional[List[int]] = None
        self._depth_list: Optional[List[int]] = None

    # -- emission helpers ------------------------------------------------
    def _spread(
        self, actx: ArrayContext, nodes: np.ndarray,
        heard: Optional[np.ndarray] = None,
    ) -> None:
        """Claims from ``nodes`` (in order) to allowed neighbors not heard."""
        if self.max_depth is not None:
            nodes = nodes[self.depth_array[nodes] < self.max_depth]
        src, dst, _ = expand_neighbors(actx.arrays, nodes, self._mask)
        if heard is not None:
            keep = drop_heard(src, dst, heard, self.net.n)
            src, dst = src[keep], dst[keep]
        if src.size == 0:
            return
        tok = self.token_array[src]
        dep = self.depth_array[src] + 1
        bits = None
        if actx.strict:
            bits = (
                TUPLE_OVERHEAD_BITS
                + TAG_BITS
                + int_bits_array(tok)
                + int_bits_array(dep)
            )
        actx.emit(src, dst, cols={"kind": 0, "tok": tok, "dep": dep}, bits=bits)

    def array_start(self, actx: ArrayContext) -> None:
        self.claimed[self._sources] = True
        self.token_array[self._sources] = self._tokens
        self.parent_array[self._sources] = ROOT
        self.depth_array[self._sources] = 0
        self._spread(actx, self._sources)

    def array_tick(self, actx: ArrayContext, d: Delivered) -> None:
        if len(d) == 0:
            return
        # Child acks (kind 1) are wire cost only: the parent pointers
        # already say who is whose child.
        claims = np.flatnonzero((d.cols["kind"] == 0) & ~self.claimed[d.dst])
        if claims.size == 0:
            return
        c_src = d.src[claims]
        c_dst = d.dst[claims]
        c_tok = d.cols["tok"][claims]
        c_dep = d.cols["dep"][claims]
        # Winner per destination: minimal (token, depth, sender) — the
        # scalar node's best-candidate scan.
        order = np.lexsort((c_src, c_dep, c_tok, c_dst))
        dst_sorted = c_dst[order]
        head = np.ones(dst_sorted.size, dtype=bool)
        head[1:] = dst_sorted[1:] != dst_sorted[:-1]
        win = order[head]
        nodes = c_dst[win]
        parents = c_src[win]
        self.claimed[nodes] = True
        self.token_array[nodes] = c_tok[win]
        self.parent_array[nodes] = parents
        self.depth_array[nodes] = c_dep[win]
        self._token_list = self._parent_list = self._depth_list = None
        # Ack the chosen parent (("child", token)), then spread claims to
        # all but this tick's claimants ((dst, src)-sorted keys).
        bits = None
        if actx.strict:
            bits = (
                TUPLE_OVERHEAD_BITS + TAG_BITS + int_bits_array(c_tok[win])
            )
        actx.emit(
            nodes, parents, cols={"kind": 1, "tok": c_tok[win], "dep": 0},
            bits=bits,
        )
        self._spread(actx, nodes, c_dst * self.net.n + c_src)

    # -- scalar-compatible outputs --------------------------------------
    @property
    def token_of(self) -> List[Optional[int]]:
        if self._token_list is None:
            tokens = self.token_array.tolist()
            self._token_list = [
                tokens[v] if claimed else None
                for v, claimed in enumerate(self.claimed.tolist())
            ]
        return self._token_list

    @property
    def parent_of(self) -> List[int]:
        if self._parent_list is None:
            self._parent_list = self.parent_array.tolist()
        return self._parent_list

    @property
    def depth_of(self) -> List[int]:
        if self._depth_list is None:
            self._depth_list = self.depth_array.tolist()
        return self._depth_list

    def forest(self) -> RootedForest:
        """The claimed BFS forest (scalar-identical parent pointers)."""
        return RootedForest(self.net, self.parent_of)


#: Fold per op: the ufunc and the value a ``None`` stands for.
FOLDS = {
    "sum": (np.add, 0),
    "min": (np.minimum, COLUMN_LIMIT),
    "max": (np.maximum, -COLUMN_LIMIT),
}


def fold_op(
    agg: Aggregation, payloads: Sequence[object]
) -> Tuple[str, PayloadColumns]:
    """The ``FOLDS`` op computing ``agg`` over ``payloads``, and their columns.

    Declines — an aggregation no ufunc computes before it packs anything —
    unless: MIN / MAX and their ``_TUPLE`` spellings, which are Python's
    ``min`` / ``max`` and order bare ints, bools and equal-shape tuples
    alike; SUM over bare ints; SUM_TUPLE over untagged int tuples,
    componentwise; OR / AND over bare ints that are all 0 or 1, where they
    are ``max`` / ``min`` (any other value, a bool included, is left to
    the combine that normalises it: ``non_int``).  A fold needs every
    magnitude (for a sum: each column's total) below 2**62, so that
    sentinels, sums and packed keys stay exact in int64.
    """
    if agg is MIN or agg is MIN_TUPLE or agg is AND:
        op = "min"
    elif agg is MAX or agg is MAX_TUPLE or agg is OR:
        op = "max"
    elif agg is SUM or agg is SUM_TUPLE:
        op = "sum"
    else:
        raise KernelDecline("unsupported_agg")
    values = PayloadColumns.pack(payloads)
    if agg is OR or agg is AND:
        if not values.bare or values.is_bool[0] or (values.cols[0] >> 1).any():
            raise KernelDecline("non_int")
    if op == "sum":
        addable = values.bare if agg is SUM else (
            not values.bare and values.tag is None
        )
        if not addable or any(values.is_bool):
            raise KernelDecline("non_int")
    for col in values.cols:
        _check_magnitudes(col)
        if op == "sum":
            mag = np.abs(col)
            low = int((mag & 0x7FFFFFFF).sum())
            if (int((mag >> 31).sum()) << 31) + low >= COLUMN_LIMIT:
                raise KernelDecline("overflow")
    return op, values


class LexKey:
    """Order-preserving packing of ``k`` int columns into one int64 key.

    Column ``i`` is shifted to start at 0 and given as many bits as its
    range needs, most significant first, so that comparing keys is
    comparing the rows lexicographically and a lexicographic min/max is a
    plain one.  Declines (``overflow``) when the widths exceed 62 bits.
    """

    @classmethod
    def fold_columns(
        cls, op: str, cols: Sequence[np.ndarray], rows: np.ndarray
    ) -> Tuple[Optional["LexKey"], List[np.ndarray]]:
        """The key and the columns a ``FOLDS[op]`` fold of ``cols`` runs on.

        A min / max over two or more columns folds one key, packed over
        the ``rows`` whose values the fold will meet; a sum (componentwise),
        a single column, or no row at all folds the columns as they are.
        """
        if op == "sum" or len(cols) < 2 or not rows.size:
            return None, list(cols)
        key = cls(cols, rows)
        return key, [key.pack(cols)]

    def __init__(self, cols: Sequence[np.ndarray], rows) -> None:
        picked = [col[rows] for col in cols]
        self.lows = [int(col.min()) for col in picked]
        widths = [
            (int(col.max()) - low).bit_length()
            for col, low in zip(picked, self.lows)
        ]
        if sum(widths) > 62:
            raise KernelDecline("overflow")
        self.shifts = [sum(widths[i + 1:]) for i in range(len(widths))]
        self.masks = [(1 << width) - 1 for width in widths]

    def pack(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        key = np.zeros(cols[0].shape, dtype=np.int64)
        for col, low, shift in zip(cols, self.lows, self.shifts):
            key |= (col - low) << shift
        return key

    def unpack(self, key: np.ndarray) -> List[np.ndarray]:
        return [
            ((key >> shift) & mask) + low
            for low, shift, mask in zip(self.lows, self.shifts, self.masks)
        ]


class ConvergecastArrayKernel(ArrayProgram):
    """Convergecast: per-node values folded up each tree.

    Its reference is the convergecast twin in ``tests/twins.py``.
    Declines unless ``values`` (one entry per network
    node, only forest members are read) fit one
    :class:`~repro.congest.arrays.PayloadColumns` layout that
    :func:`fold_op` folds: a sum is componentwise over the columns (the
    coverage check's ``(count, flag)`` pairs), a min / max lexicographic
    across them.  ``None`` entries contribute nothing, exactly as in the
    scalar program.

    The send schedule lives in the forest's
    :class:`~repro.core.trees.ForestPlan`: node ``v`` is due at tick
    ``s(v)`` = height of its subtree (leaves at tick 0, i.e. inside
    ``array_start``), and the last of its children's aggregates arrives
    exactly then.  So a due node fires when no child is still awaited,
    carrying its value folded with what arrived; a child whose packet
    was lost holds its parent back, as in the scalar program.
    """

    name = "tree_convergecast"

    def __init__(
        self, forest: RootedForest, agg: Aggregation, values: Sequence[object]
    ) -> None:
        self.forest = forest
        plan = self._plan = forest.plan
        op, values = fold_op(agg, values)
        self._ufunc, identity = FOLDS[op]
        self._layout = values
        has = self._has = (
            None if values.present is None else values.present.copy()
        )
        rows = plan.order if has is None else plan.order[has[plan.order]]
        self._key, cols = LexKey.fold_columns(op, values.cols, rows)
        self._acc = [np.array(col, dtype=np.int64, copy=True) for col in cols]
        if has is not None:
            for col in self._acc:
                col[~has] = identity
        #: Per member, the children whose aggregate has not arrived.
        self._awaited = np.bincount(
            plan.sender_parents, minlength=plan.parent.size
        )
        self._at_root: Optional[Dict[int, object]] = None

    def _folded(self, rows) -> PayloadColumns:
        """The aggregates at ``rows`` so far, in the values' layout."""
        acc = [col[rows] for col in self._acc]
        layout = self._layout
        return PayloadColumns(
            acc if self._key is None else self._key.unpack(acc[0]),
            layout.is_bool, layout.tag, layout.bare,
            None if self._has is None else self._has[rows],
        )

    def _emit_group(self, actx: ArrayContext, tick: int) -> None:
        plan = self._plan
        starts = plan.send_groups
        if tick + 1 >= starts.size:
            return
        src = plan.senders[starts[tick]:starts[tick + 1]]
        ready = self._awaited[src] == 0
        if not ready.all():
            src = src[ready]
        if not src.size:
            return
        cols = {f"v{i}": col[src] for i, col in enumerate(self._acc)}
        if self._has is not None:
            cols["has"] = self._has[src]
        bits = self._folded(src).bits() if actx.strict else None
        actx.emit(src, plan.parent[src], cols=cols, bits=bits)

    def array_start(self, actx: ArrayContext) -> None:
        self._emit_group(actx, 0)

    def array_tick(self, actx: ArrayContext, d: Delivered) -> None:
        if len(d):
            for i, col in enumerate(self._acc):
                self._ufunc.at(col, d.dst, d.cols[f"v{i}"])
            if self._has is not None:
                self._has[d.dst[d.cols["has"] != 0]] = True
            np.subtract.at(self._awaited, d.dst, 1)
            self._at_root = None
        self._emit_group(actx, actx.tick)

    @property
    def at_root(self) -> Dict[int, object]:
        """Per root whose every child reported, its tree's aggregate, in
        the scalar ``at_root``'s completion order."""
        if self._at_root is None:
            fire = self._plan.root_fire
            fire = fire[self._awaited[fire] == 0]
            self._at_root = dict(zip(
                fire.tolist(), self._folded(fire).tolist()
            ))
        return self._at_root

    @property
    def partial(self) -> Dict[int, object]:
        """Scalar-compatible per-member subtree aggregates."""
        return dict(zip(
            self.forest.order, self._folded(self._plan.order).tolist()
        ))


class BroadcastArrayKernel(ArrayProgram):
    """Broadcast: each root's value down its tree.

    Its reference is the broadcast twin in ``tests/twins.py``.
    Declines unless ``root_values``' payloads fit one
    column layout.  The schedule lives in the forest's plan: a node at
    depth ``d`` of a tree whose root holds a value hears it at tick
    ``d``, from its parent, and passes it on in that tick — only if it
    did hear it.
    """

    name = "tree_broadcast"

    def __init__(
        self, forest: RootedForest, root_values: Dict[int, object]
    ) -> None:
        plan = forest.plan
        values = PayloadColumns.pack(list(root_values.values()))
        roots = np.fromiter(root_values, dtype=np.int64, count=len(root_values))
        if (plan.parent[roots] != ROOT).any():
            bad = roots[plan.parent[roots] != ROOT][0]
            raise ValueError(f"{int(bad)} is not a root of the forest")
        self._root_values = root_values
        self._columns = values
        # Row of the value each node hears: its root's position in
        # ``root_values``, or -1 under a root that broadcasts nothing.
        row_of_root = np.full(plan.parent.size, -1, dtype=np.int64)
        row_of_root[roots] = np.arange(roots.size)
        self._row = row_of_root[plan.root_of]
        reached, starts = plan.by_level, plan.level_starts
        if roots.size != plan.root_fire.size:
            reached = reached[self._row[reached] >= 0]
            starts = np.searchsorted(
                plan.depth[reached], np.arange(1, len(plan.levels) + 2)
            )
        self._reached = reached
        self._src = plan.parent[reached]
        self._starts = starts
        self._values = values.take(self._row[reached])
        #: Who holds its tree's value: the roots, and whom it reached.
        self._heard = np.zeros(plan.parent.size, dtype=bool)
        self._heard[roots] = True

    def _emit_level(self, actx: ArrayContext, level: int) -> None:
        starts = self._starts
        if level >= starts.size:
            return
        lo, hi = starts[level - 1], starts[level]
        if lo == hi:
            return
        rows = slice(lo, hi)
        heard = self._heard[self._src[rows]]
        if not heard.all():
            rows = lo + np.flatnonzero(heard)
        values = self._values
        cols = {f"v{i}": col[rows] for i, col in enumerate(values.cols)}
        bits = values.take(rows).bits() if actx.strict else None
        actx.emit(self._src[rows], self._reached[rows], cols=cols, bits=bits)

    def array_start(self, actx: ArrayContext) -> None:
        self._emit_level(actx, 1)

    def array_tick(self, actx: ArrayContext, d: Delivered) -> None:
        self._heard[d.dst] = True
        self._emit_level(actx, actx.tick + 1)

    def received_at(self, nodes: Sequence[int]) -> PayloadColumns:
        """What each of ``nodes`` received (``None`` if nothing reached it)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = self._row[nodes]
        reached = (rows >= 0) & self._heard[nodes]
        heard = self._columns.take(rows[reached])
        return heard if reached.all() else heard.scatter(rows.size, reached)

    @property
    def received(self) -> Dict[int, object]:
        """Scalar-compatible ``received``: roots first, then tick by tick."""
        payloads = list(self._root_values.values())
        reached = self._reached[self._heard[self._reached]]
        rows = self._row[reached].tolist()
        received = dict(self._root_values)
        received.update(zip(reached.tolist(), [payloads[row] for row in rows]))
        return received


def send_columns(sends) -> Tuple[np.ndarray, np.ndarray, PayloadColumns]:
    """``sends`` as ``(src, dst, payloads)`` columns, or :class:`KernelDecline`."""
    if not isinstance(sends, tuple):
        sends = zip(*sends) if sends else ((), (), ())
    src, dst, payloads = sends
    return (
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        PayloadColumns.pack(payloads),
    )


class CrossRoundArrayKernel(ArrayProgram):
    """One round over explicit directed edges.

    Its reference is the cross-round twin in ``tests/twins.py``.
    Row ``i`` of ``sends`` goes over the directed edge
    ``(src[i], dst[i])``.  ``received`` and ``merged`` read the rows as
    the engine hands them over: stably sorted by ``(dst, src)``, the
    scalar inbox order.
    """

    name = "cross_round"

    def __init__(self, sends) -> None:
        src, dst, payloads = send_columns(sends)
        if payloads.present is not None:
            raise KernelDecline("none_value")
        self._sends = (src, dst, payloads)
        empty = np.empty(0, dtype=np.int64)
        self._arrived = (empty, empty, payloads.take(empty))

    def array_start(self, actx: ArrayContext) -> None:
        src, dst, payloads = self._sends
        cols = {f"v{i}": col for i, col in enumerate(payloads.cols)}
        bits = payloads.bits() if actx.strict else None
        actx.emit(src, dst, cols=cols, bits=bits)

    def array_tick(self, actx: ArrayContext, d: Delivered) -> None:
        layout = self._sends[2]
        self._arrived = (d.src, d.dst, PayloadColumns(
            [d.cols[f"v{i}"] for i in range(len(layout.cols))],
            layout.is_bool, layout.tag, layout.bare, None, len(d),
        ))

    @property
    def delivered(self) -> Tuple[np.ndarray, np.ndarray, PayloadColumns]:
        """The rows that arrived, as ``(src, dst, payloads)`` columns,
        stably sorted by ``(dst, src)`` (a row a fault plan dropped is not
        among them)."""
        return self._arrived

    @property
    def received(self) -> Dict[int, List[Tuple[int, object]]]:
        """Scalar-compatible ``received``: inbox per node, sender-sorted."""
        src, dst, payloads = self._arrived
        out: Dict[int, List[Tuple[int, object]]] = {}
        for sender, node, payload in zip(
            src.tolist(), dst.tolist(), payloads.tolist()
        ):
            out.setdefault(node, []).append((sender, payload))
        return out

    def merged(self, agg, n: int) -> Sequence[object]:
        """Per node, the ``agg``-merge of the payloads it received
        (:func:`~repro.core.aggregation.merge_inboxes`): one ``reduceat``
        where ``agg`` folds the bare column, a Python merge otherwise."""
        _src, dst, payloads = self._arrived
        ufunc = None
        if len(payloads.cols) == 1:
            values = PayloadColumns(payloads.cols, payloads.is_bool, bare=True)
            try:
                ufunc = FOLDS[fold_op(agg, values)[0]][0]
            except KernelDecline:
                pass
        if ufunc is None:
            return merge_inboxes(self.received, agg, n)
        # dst is sorted: one reduceat over the runs of equal dst.
        heads = np.flatnonzero(np.diff(dst, prepend=-1))
        return PayloadColumns(
            [ufunc.reduceat(values.cols[0], heads)], values.is_bool, bare=True
        ).scatter(n, dst[heads])
