"""Array-native PA wave kernels: broadcast, reversal, replay, all-reduce.

These are the one implementation of the four passes of
:mod:`repro.core.wave`.  They were written against event-driven programs
(the tests' oracles, ``tests/twins.py``) in which every message arrival
may gain a node its part's token or settle a block climb, and either
emits its follow-up sends at once.  Because *all* wave state is per-node
(the token byte) or per-``(node, part)`` (the ``ku``/``kd`` dedup sets,
and who has sent the node the part's token), a tick decomposes into
independent per-node event sequences, which makes the whole tick
resolvable with array passes: each potential action becomes a *request*
carrying the position of the event that raised it, and for every flag (or
dedup key) the request with the smallest position wins — exactly the
outcome of processing the events sequentially.  A send to a neighbor that
has sent the node the same part's token is dropped, as the event-driven
handlers skip it.

Event positions interleave the two activation hooks of the event-driven
form: a leader start (``on_activate``, which runs before the node's
inbox) gets position ``2 * i`` where ``i`` is the node's first inbox row,
an arrival row ``i`` gets ``2 * i + 1``.  Within one event, sends are
ordered by a fixed rank — ``su`` before ``bd`` before ``ru`` before
``ku`` before ``kd`` — which is the order the handlers emit them; sorting
a node's emission rows by ``(position, rank, fan-out index)`` therefore
reproduces the node's enqueue sequence, and the shared
:class:`~repro.core.array_queue.EdgePool` turns those sequences into the
same wire schedule.

**The schedule does not depend on the values.**  Who sends to whom at
which tick is fixed by partition, shortcut and delay draw: the reversal
answers every recorded wave edge exactly once and the replay retraces them
(Lemma 4.4's "symmetrically").  The route is a
:class:`~repro.core.wave.WaveIndex`: the broadcast kernel hands its two
arenas over as the index's rows (:meth:`WaveArrayKernel.route`).  So no
packet carries a value.  A reversal answer carries its sender's dense key
id (-1 for ``None``) and the receiver folds the *sender's accumulator*
into its own; the accumulator it reads is final, because a key fires once,
after the last answer it expects, and nothing is folded into a fired key
again.  A replay packet carries the part id; the value is the part's entry
in the results table.  Values live beside the schedule in one store, held
factor by factor under a layout chosen once per solve where the plan is
made (:func:`reverse_fold`, :class:`FoldLayout`): a product aggregation is
one factor per component, anything else one factor.  A factor that
``fold_op`` folds is int64 columns folded with ``ufunc.at`` (a min / max
as one column of ranks among its start values); any other is a Python list
folded with the factor's own ``merge`` in delivered-row order — the
event-driven fold order, so even an order-sensitive merge returns the
reference result.  A list costs one Python merge per value-carrying answer
(one per key with a wave parent), never one per message.

**So a setup learns its route once** (the cost rule of
:mod:`repro.core.wave`): the first solve on a setup (the verification
that accepted its shortcut, when its build ran one) runs broadcast and
reversal over the wire record — two wire passes; what a node remembers of
them is its wave parent and which of its wave edges were answered under
the child tag, i.e. the wave forest (:meth:`WaveIndex.forest`, ``#keys -
#parts`` edges), and the replay of that same solve already runs on it —
one forest pass; every later solve on that setup runs one all-reduce on
the forest (:class:`AllReduceArrayKernel`): one message each way on every
forest edge, in diam(T) ticks of the forest T where a reversal and a
replay took 2 height(T), and no broadcast.  Reversal and replay take a
:class:`WaveIndex`, wire or forest, and run the same body on either: on a
forest a key expects one answer per wave child and there is no
non-parent in-edge to answer ``None`` at the start.  The answer tag
suffices to learn the forest because a key answers exactly one in-edge —
its parent's — under the child tag, whatever value it carries.  (The
kernels read the same fact off the ``parent`` column directly: no answer
packet carries its tag, as none carries its value.)

The reversal iterates its recorded ``(node, part)`` keys in canonical
sorted order.  Sorted order is *restriction-stable*: a conflict-closed
subset of parts (a shard) sees exactly the relative key order it would
inside the full run, and the order survives any order-preserving
relabeling of nodes and part ids, which is what makes the sharded
backend's per-shard reversals land on the serial wire schedule
bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import is_not
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..congest.arrays import (
    ColumnArena,
    KernelDecline,
    PayloadColumns,
    int_bits_array,
    note_kernel_fallback,
)
from ..congest.engine import ArrayProgram
from ..congest.message import TAG_BITS, TUPLE_OVERHEAD_BITS, payload_bits
from .aggregation import Aggregation
from .array_kernels import FOLDS, LexKey, fold_op, int_column
from .array_queue import (
    EdgePool,
    KeySet,
    csr_expand,
    csr_slots,
    find_sorted,
    first_occurrence_mask,
    in_sorted,
)
from .wave import WaveIndex, pid_bits

_EMPTY = np.empty(0, dtype=np.int64)

#: Wire codes for the five wave tags (ru, su, bd, ku, kd), and the in-event
#: emission rank.  The token fan-out relies on ``BD == SU + 1`` and on su /
#: bd holding ranks 0 / 1: a fan-out row's tag and rank are its ``crosses``
#: bit plus ``SU`` / plus 0.
RU, SU, BD, KU, KD = range(5)
_RANK = {SU: 0, BD: 1, RU: 2, KU: 3, KD: 4}
_NO_KINDS = (0,) * 5


class _KeyTable:
    """Int64-key -> int64-value lookup with a default (keys ascending)."""

    __slots__ = ("keys", "vals", "default")

    def __init__(self, keys: np.ndarray, vals: np.ndarray, default: int) -> None:
        self.keys = keys
        self.vals = vals
        self.default = default

    def get(self, query: np.ndarray) -> np.ndarray:
        out = np.full(query.size, self.default, dtype=np.int64)
        pos, hit = find_sorted(self.keys, query)
        out[hit] = self.vals[pos[hit]]
        return out


def _sends(src, dst, pos, tagc, pids, p0=None, p1=None) -> Tuple[np.ndarray, ...]:
    """An emission group of one ``tagc`` message per row."""
    zero = np.zeros(src.size, dtype=np.int64)
    return (
        src, dst, pos, np.full(src.size, _RANK[tagc], dtype=np.int64), zero,
        np.full(src.size, tagc, dtype=np.int64), pids,
        zero if p0 is None else p0, zero if p1 is None else p1,
    )


def _gather(parts: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """Row-wise concatenation of equal-width column tuples."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


class WaveArrayKernel(ArrayProgram):
    """Algorithm 1's token broadcast; its reference is the token-wave twin
    in ``tests/twins.py``.  A leader token is an int below 2**62 (else: a
    decline): the token is all a wave packet carries."""

    name = "pa_wave"

    def __init__(
        self,
        net,
        partition,
        division,
        shortcut,
        annotations,
        leader_tokens: Dict[int, int],
        delays: Optional[Dict[int, int]] = None,
        capacity: int = 1,
    ) -> None:
        delays = delays or {}
        n = self.n = net.n
        P = max(1, partition.num_parts)
        #: Key stride: ``(node, part)`` packs to ``node * stride + part``.
        self.stride = np.int64(P)
        self.part_of = np.asarray(partition.part_of, dtype=np.int64)
        self.rep_of = np.asarray(division.rep_of, dtype=np.int64)
        self.fparent = division.forest.plan.parent
        self.tparent = shortcut.tree.plan.parent
        self._fan = division.wave_fanout_csr

        self._dkeys, self._dstarts, self._dcounts, self._dchildren = (
            shortcut.down_csr()
        )
        self._up_keys = shortcut.up_key_array()
        #: Whether any part has a block edge at all.  Without one every
        #: part lies inside its sub-part trees, an inject finds nothing to
        #: climb and nothing to flood, and block routing is skipped whole.
        self._blocks = bool(self._dkeys.size or self._up_keys.size)
        if self._blocks:
            self._prio = _KeyTable(*annotations.packed_depths(P), 1 << 30)

        self.num_parts = partition.num_parts
        self.leaders = np.asarray(
            [division.part_leader[pid] for pid in range(self.num_parts)],
            dtype=np.int64,
        ).reshape(-1)
        self.delay = np.asarray(
            [delays.get(pid, 0) for pid in range(self.num_parts)],
            dtype=np.int64,
        ).reshape(-1)
        self.token = int_column(
            [leader_tokens[pid] for pid in range(self.num_parts)]
        ).reshape(-1)
        #: Per part, the bits of the whole token packet.
        self.pbits = pid_bits(self.num_parts) + int_bits_array(self.token)

        self.has_token = np.zeros(n, dtype=bool)
        self.started = np.zeros(self.num_parts, dtype=bool)
        self._unstarted = self.num_parts
        self._kup = KeySet()
        self._kdown = KeySet()
        #: ``(node * stride + part) * n + sender``: who has sent a node a
        #: part's token, over every tick so far.
        self._told = KeySet()
        self._pool = EdgePool(n, ("tag", "pid"), capacity=capacity)
        self.in_arena = ColumnArena(("key", "src"))
        self.out_arena = ColumnArena(("key", "dst"))

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def array_start(self, actx) -> None:
        timed = self.delay > 1
        for tick in np.unique(self.delay[timed]).tolist():
            actx.wake_at(self.leaders[timed & (self.delay == tick)], tick)
        actx.wake(self.leaders[~timed])

    def _start_leaders(self, actx, d, gain, inject) -> None:
        """``on_activate``: a leader whose delay has run out starts its part."""
        pend = np.flatnonzero(~self.started)
        lead = self.leaders[pend]
        act = in_sorted(d.active, lead)
        pend, lead = pend[act], lead[act]
        if pend.size:
            early = actx.tick < self.delay[pend]
            if early.any():
                actx.wake(lead[early])
                pend, lead = pend[~early], lead[~early]
        if not pend.size:
            return
        self.started[pend] = True
        self._unstarted -= pend.size
        # on_activate runs before the inbox: position 2 * (first inbox row).
        pos = 2 * np.searchsorted(d.dst, lead)
        self.has_token[lead] = True
        gain.append((lead, pend, pos))
        rep = self.rep_of[lead] == lead
        inject.append((lead[rep], pend[rep], pos[rep]))

    def array_tick(self, actx, d) -> None:
        P = self.stride
        dst = d.dst
        m = dst.size
        if m:
            tag = d.cols["tag"]
            pid = d.cols["pid"]
            key = dst * P + pid
            self.in_arena.append(key=key, src=d.src)
            self._told.add(key * self.n + d.src)
            # Which kinds arrived at all: absent ones cost nothing below.
            kinds = np.bincount(tag, minlength=5).tolist()
        else:
            pid = _EMPTY
            kinds = _NO_KINDS

        # Emission groups, (src, dst, pos, rank, idx, tag, pid, p0, p1)
        # columns each, and the requests that raise them: the members
        # that gain their token, and the representatives among them that
        # enter their block — (node, pid, pos) columns each.
        em: List[Tuple[np.ndarray, ...]] = []
        gain: List[Tuple[np.ndarray, ...]] = []
        inject: List[Tuple[np.ndarray, ...]] = []
        ku_rows = kd_rows = _EMPTY

        if self._unstarted:
            self._start_leaders(actx, d, gain, inject)

        if m:
            # Token grant: the first grant-capable arrival per node wins.
            cand = ~self.has_token[dst]
            if kinds[KU] or kinds[KD]:
                # ru / su / bd always carry the grant; a kd, and a ku that
                # is fresh for its (node, part), only to a part member.
                ku_rows = np.flatnonzero(tag == KU)
                kk = key[ku_rows]
                ku_rows = ku_rows[
                    first_occurrence_mask(kk) & ~self._kup.contains(kk)
                ]
                kd_rows = np.flatnonzero(tag == KD)
                capable = tag < KU
                block = np.concatenate((ku_rows, kd_rows))
                capable[block[self.part_of[dst[block]] == pid[block]]] = True
                cand &= capable
            ci = np.flatnonzero(cand)
            w = ci[first_occurrence_mask(dst[ci])]
            if w.size:
                wn = dst[w]
                wpos = 2 * w + 1
                self.has_token[wn] = True
                gain.append((wn, pid[w], wpos))
                # A representative enters its block unless the token came
                # through it.
                ra = (self.rep_of[wn] == wn) & (tag[w] < KU)
                inject.append((wn[ra], pid[w][ra], wpos[ra]))

        # -- a gain hands the token on: su to the children, bd across the
        # boundary, and a non-rep's ru toward its representative --------
        if gain:
            gn, gp, gpos = _gather(gain)
            starts, counts, flat, crosses = self._fan
            origin, slots, within = csr_slots(starts, counts, gn)
            if slots.size:
                crosses = crosses[slots]
                zero = np.zeros(slots.size, dtype=np.int64)
                em.append((
                    gn[origin], flat[slots], gpos[origin], crosses, within,
                    crosses + SU, gp[origin], zero, zero,
                ))
            nr = self.rep_of[gn] != gn
            em.append(_sends(
                gn[nr], self.fparent[gn[nr]], gpos[nr], RU, gp[nr]
            ))

        if self._blocks:
            self._route_blocks(dst, pid, ku_rows, kd_rows, inject, em)

        # -- assemble, skip the senders, order, and flush ----------------
        if em:
            src, to, pos, rank, idx, tcol, pcol, p0, p1 = _gather(em)
            if self._told:
                # No send goes to a neighbor that has sent this node the
                # same part's token.
                keep = ~self._told.contains((src * P + pcol) * self.n + to)
                if not keep.all():
                    src, to, pos, rank, idx, tcol, pcol, p0, p1 = (
                        col[keep] for col in
                        (src, to, pos, rank, idx, tcol, pcol, p0, p1)
                    )
            # The pool reads enqueue order source by source, so ordering
            # the rows by source first spares it a sort of its own.
            order = np.lexsort((idx, rank, pos, src))
            self._pool.push(
                src[order], to[order], p0[order], p1[order],
                tag=tcol[order], pid=pcol[order],
            )

        emitted, wake = self._pool.select(d.active)
        if emitted is not None:
            bits = self.pbits[emitted["pid"]] if actx.strict else None
            actx.emit(
                emitted["src"],
                emitted["dst"],
                cols={"tag": emitted["tag"], "pid": emitted["pid"]},
                bits=bits,
            )
            self.out_arena.append(
                key=emitted["src"] * P + emitted["pid"], dst=emitted["dst"]
            )
        actx.wake(wake)

    def _route_blocks(self, dst, pid, ku_rows, kd_rows, inject, em) -> None:
        """BlockRoute: resolve this tick's kup and kdown claims.

        ``ku_rows`` are the fresh ku arrivals, ``kd_rows`` the kd
        arrivals, ``inject`` the representatives entering their block.
        Per ``(node, part)`` the earliest of them wins the climb: ku up
        unless the node is the block root, and kd down, both at once.
        """
        P = self.stride
        kd_req: List[Tuple[np.ndarray, ...]] = []
        # -- kup resolution --------------------------------------------
        cparts: List[Tuple[np.ndarray, ...]] = []
        if ku_rows.size:
            cparts.append((dst[ku_rows], pid[ku_rows], 2 * ku_rows + 1))
        if inject:
            cparts.append(_gather(inject))
        if cparts:
            cn, cp, cpos = _gather(cparts)
            ckey = cn * P + cp
            order = np.lexsort((cpos, ckey))
            wk = order[first_occurrence_mask(ckey[order])]
            self._kup.add(ckey[wk])
            # An inject never loses: a ku of its key ahead of the token's
            # arrival would have brought the token.  Losing ku arrivals
            # are skipped entirely.
            up = in_sorted(self._up_keys, ckey[wk])
            climb = wk[up]
            if climb.size:
                em.append(_sends(
                    cn[climb], self.tparent[cn[climb]], cpos[climb], KU,
                    cp[climb], self._prio.get(ckey[climb]), cp[climb],
                ))
            kd_req.append((cn[wk], cp[wk], cpos[wk]))

        # -- kdown resolution ------------------------------------------
        if kd_rows.size:
            kd_req.append((dst[kd_rows], pid[kd_rows], 2 * kd_rows + 1))
        if not kd_req:
            return
        qn, qp, qpos = _gather(kd_req)
        qkey = qn * P + qp
        keep = ~self._kdown.contains(qkey)
        qn, qp, qpos, qkey = qn[keep], qp[keep], qpos[keep], qkey[keep]
        if not qn.size:
            return
        order = np.lexsort((qpos, qkey))
        first = order[first_occurrence_mask(qkey[order])]
        qn, qp, qpos, qkey = qn[first], qp[first], qpos[first], qkey[first]
        self._kdown.add(qkey)
        pos_tbl, has = find_sorted(self._dkeys, qkey)
        gi = np.flatnonzero(has)
        origin, child, within = csr_expand(
            self._dstarts, self._dcounts, self._dchildren, pos_tbl[gi]
        )
        if child.size:
            src = qn[gi][origin]
            pp = qp[gi][origin]
            em.append((
                src, child, qpos[gi][origin],
                np.full(child.size, _RANK[KD], dtype=np.int64), within,
                np.full(child.size, KD, dtype=np.int64), pp,
                self._prio.get(src * P + pp), pp,
            ))

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def route(self) -> WaveIndex:
        """The finished broadcast's wire record."""
        return WaveIndex(
            self.part_of, self.leaders, self.started, self.has_token,
            self.out_arena.column("key"), self.out_arena.column("dst"),
            self.in_arena.column("key"), self.in_arena.column("src"),
        )


def _flush(actx, d, pool: EdgePool, names: Tuple[str, ...], bits_of) -> None:
    """One tick of a value-free packet pool: emit its ``names`` columns
    from the sources active in ``d``.

    ``bits_of(emitted)`` prices the emitted rows; it runs on an audited
    engine only.
    """
    emitted, wake = pool.select(d.active)
    if emitted is not None:
        actx.emit(
            emitted["src"],
            emitted["dst"],
            cols={name: emitted[name] for name in names},
            bits=bits_of(emitted) if actx.strict else None,
        )
    actx.wake(wake)


def _values_at(index: WaveIndex, results: Dict[int, object],
               reached: np.ndarray) -> List[object]:
    """Per node, its part's entry in ``results`` where it is ``reached``."""
    out: List[object] = [None] * index.n
    for v, pid in zip(reached.tolist(), index.part_of[reached].tolist()):
        out[v] = results[pid]
    return out


@dataclass(frozen=True)
class FoldLayout:
    """How a wave's value store holds one solve's values.

    A value is a product of ``len(ops)`` factors: a tuple of the factors'
    values, folded componentwise by ``agg.factors`` (``product``), or —
    for every other aggregation — the value itself, its one factor
    ``agg``.  Per factor, ``ops`` names the
    :data:`~repro.core.array_kernels.FOLDS` op that folds it on int64
    columns, or is ``None`` for a Python list folded with the factor's
    own ``merge``.  :func:`reverse_fold` decides it once per solve on the
    global values; a sharded worker folds its restriction under the same
    layout.
    """

    ops: Tuple[Optional[str], ...]
    product: bool


def pack_values(values: Sequence[object], agg: Aggregation) -> Sequence[object]:
    """``values`` as the columns ``fold_op`` folds for ``agg``, or as given.

    Read back, the columns are the list they stand for; handed to the
    plan and the kernels, they are the value store's columns, packed once.
    """
    try:
        return fold_op(agg, values)[1]
    except KernelDecline:
        return values


class FactorValues(Sequence):
    """The values of a batched solve: per node, the tuple of its value for
    each ``(values, agg)`` item, held as one sequence per item.

    An item's values that ``fold_op`` folds for its aggregation are kept as
    the :class:`~repro.congest.arrays.PayloadColumns` it packed, so the
    value store reads every factor as it is — :func:`reverse_fold` and the
    kernels unzip nothing and pack nothing again.  The tuples are zipped
    once, when first read (by a shard's restriction, or a test's twin).
    """

    __slots__ = ("columns", "_rows")

    def __init__(
        self, items: Sequence[Tuple[Sequence[object], Aggregation]]
    ) -> None:
        size = min(len(values) for values, _agg in items)
        self.columns = tuple(
            pack_values(values if len(values) == size else values[:size], agg)
            for values, agg in items
        )
        self._rows: Optional[List[tuple]] = None

    def _tuples(self) -> List[tuple]:
        if self._rows is None:
            self._rows = list(zip(*self.columns))
        return self._rows

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        return self._tuples()[index]

    def __iter__(self):
        return iter(self._tuples())


def _factor_values(
    values: Sequence[object], k: int
) -> Optional[Tuple[List[Sequence[object]], Optional[np.ndarray]]]:
    """Per factor, its component of every value (``None`` where the whole
    value is), and which values are not ``None`` (``None``: all are);
    ``None`` unless every value is a ``k``-tuple or ``None``."""
    if isinstance(values, FactorValues):
        return (list(values.columns), None) if len(values.columns) == k else None
    kinds = set(map(type, values))
    if not kinds <= {tuple, type(None)}:
        return None
    present = None
    if type(None) in kinds:
        present = np.fromiter(
            map(is_not, values, repeat(None)), dtype=bool, count=len(values)
        )
        nones = (None,) * k
        values = [nones if v is None else v for v in values]
    if values and set(map(len, values)) != {k}:
        return None
    return list(zip(*values)) or [()] * k, present


def _present_rows(columns: PayloadColumns) -> np.ndarray:
    """The entries of ``columns`` that are not ``None``."""
    if columns.present is None:
        return np.arange(len(columns))
    return np.flatnonzero(columns.present)


class _ColumnBlock:
    """The factors that fold on int64 columns, held as one block.

    ``ints`` has a row per stored column, the rows of one op side by side
    so that one ``ufunc.at`` folds them all.  ``present`` has a row per
    factor marking the slots that hold one of its values.

    A sum is its columns, componentwise, 0 where it holds none.  A min /
    max only ever selects one of the start values, so it is one row of
    ranks among them (:class:`_Starts`): the rank of its key — the
    value itself, or the :class:`~repro.core.array_kernels.LexKey` that
    orders tuples lexicographically — among the start values' distinct
    keys, whose order it keeps.  A slot's value and bits are looked up by
    its rank; the op's identity is a rank past the last (``-1`` for a
    max), which reads as ``None`` and 1 bit.
    """

    def __init__(self, specs, node: np.ndarray, live: np.ndarray,
                 size: int) -> None:
        K = live.size
        self.present = np.zeros((len(specs), size), dtype=bool)
        self.layouts: List[PayloadColumns] = []
        #: Per factor, its :class:`_Starts` (``None``: a sum).
        self.starts: List[Optional[_Starts]] = []
        by_op: Dict[str, list] = {op: [] for op in FOLDS}
        for f, (op, values) in enumerate(specs):
            layout = PayloadColumns.pack(values)
            rows = _present_rows(layout)
            mask = live if layout.present is None else (
                live & layout.present[node]
            )
            self.present[f, :K] = mask
            starts = None
            if op == "sum":
                identity, cols = 0, layout.cols
            else:
                starts = _Starts(op, layout, rows)
                identity = starts.bits.size - 1 if op == "min" else -1
                cols = [starts.ranks]
            for col in cols:
                row = np.full(size, identity, dtype=np.int64)
                row[:K][mask] = col[node[mask]]
                by_op[op].append((f, row))
            self.layouts.append(layout)
            self.starts.append(starts)
        #: Per op present, its ufunc and its rows ``[lo, hi)``.
        self.blocks = []
        rows, owner = [], []
        for op, entries in by_op.items():
            if entries:
                self.blocks.append(
                    (FOLDS[op][0], len(rows), len(rows) + len(entries))
                )
                owner += [f for f, _row in entries]
                rows += [row for _f, row in entries]
        self.ints = np.array(rows, dtype=np.int64).reshape(len(rows), size)
        owner = np.asarray(owner, dtype=np.int64)
        #: Per factor, its stored rows, in column order.
        self.rows = [np.flatnonzero(owner == f) for f in range(len(specs))]
        self._base = (np.arange(len(specs), dtype=np.int64) * size)[:, None]

    def absorb(self, into: np.ndarray, sender: np.ndarray) -> None:
        carried = self.present[:, sender]
        ints = self.ints
        for ufunc, lo, hi in self.blocks:
            if hi - lo == 1:
                ufunc.at(ints[lo], into, ints[lo, sender])
            else:
                ufunc.at(ints[lo:hi], (slice(None), into), ints[lo:hi, sender])
        self.present.reshape(-1)[(self._base + into)[carried]] = True

    def copy(self, into: np.ndarray, source: np.ndarray) -> None:
        self.ints[:, into] = self.ints[:, source]
        self.present[:, into] = self.present[:, source]

    def bits(self, slots: np.ndarray) -> np.ndarray:
        """Per slot, the sum over the factors of their value's
        ``payload_bits`` (1 for ``None``)."""
        ints = self.ints[:, slots]
        total = 0
        for f, starts in enumerate(self.starts):
            rows = self.rows[f]
            if starts is not None:
                total = total + starts.bits[ints[rows[0]]]
                continue
            layout = self.layouts[f]
            if layout.bare:  # 0 where it holds none, which is 1 bit
                total = total + int_bits_array(ints[rows[0]])
                continue
            total = total + np.where(
                self.present[f, slots],
                int_bits_array(ints[rows]).sum(axis=0) + TUPLE_OVERHEAD_BITS
                + (0 if layout.tag is None else TAG_BITS),
                1,
            )
        return total

    def objects(self, f: int, slots: np.ndarray) -> List[object]:
        """Factor ``f``'s values in ``slots`` (``None`` for none)."""
        rows = self.ints[self.rows[f]][:, slots]
        present = self.present[f, slots]
        starts = self.starts[f]
        if starts is not None:
            if starts.bits.size == 1:  # no start value: every slot is None
                return [None] * slots.size
            ranks = np.where(present, rows[0], 0)
            rows = [col[ranks] for col in starts.values.cols]
        layout = self.layouts[f]
        return PayloadColumns(
            list(rows), layout.is_bool, layout.tag, layout.bare, present,
            slots.size,
        ).tolist()


class _Starts:
    """A min / max factor's distinct start values (``values``), in key
    order, and per entry of ``layout`` its value's rank among them
    (``ranks``; 0 at a ``None``).  ``bits`` is indexed by rank and holds
    one more entry, 1, for a rank past either end — the op's identity,
    ``None``."""

    __slots__ = ("ranks", "values", "bits")

    def __init__(self, op: str, layout: PayloadColumns,
                 rows: np.ndarray) -> None:
        _key, cols = LexKey.fold_columns(op, layout.cols, rows)
        keys = cols[0][rows] if cols else np.zeros(rows.size, dtype=np.int64)
        distinct, rank = np.unique(keys, return_inverse=True)
        self.ranks = np.zeros(len(layout), dtype=np.int64)
        self.ranks[rows] = rank
        # Equal keys are equal values: any entry of a rank stands for it.
        first = np.empty(distinct.size, dtype=np.int64)
        first[rank] = rows
        self.values = layout.take(first)
        self.bits = np.append(self.values.bits(), 1)


class _ListGroup:
    """One factor's slots as a Python list, folded with its ``merge`` in
    delivered-row order — the scalar fold order, so even an
    order-sensitive merge returns the scalar result."""

    __slots__ = ("merge", "acc", "has")

    def __init__(self, merge, values: Sequence[object], node: np.ndarray,
                 live: np.ndarray, size: int) -> None:
        self.merge = merge
        column = np.fromiter(values, dtype=object, count=len(values))
        present = np.fromiter(
            map(is_not, column, repeat(None)), dtype=bool, count=column.size
        )
        live = live & present[node]
        acc = np.full(size, None, dtype=object)
        acc[:live.size][live] = column[node[live]]
        self.acc = acc.tolist()
        self.has = np.zeros(size, dtype=bool)
        self.has[:live.size] = live

    def absorb(self, into: np.ndarray, sender: np.ndarray) -> None:
        carried = self.has[sender]
        acc, merge = self.acc, self.merge
        for k, j in zip(into[carried].tolist(), sender[carried].tolist()):
            acc[k] = merge(acc[k], acc[j])
        self.has[into[carried]] = True

    def copy(self, into: np.ndarray, source: np.ndarray) -> None:
        acc = self.acc
        for k, j in zip(into.tolist(), source.tolist()):
            acc[k] = acc[j]
        self.has[into] = self.has[source]

    def bits(self, slots: np.ndarray) -> np.ndarray:
        return np.fromiter(
            map(payload_bits, map(self.acc.__getitem__, slots.tolist())),
            dtype=np.int64, count=slots.size,
        )

    def objects(self, slots: np.ndarray) -> List[object]:
        return [self.acc[k] for k in slots.tolist()]


class _Accumulators:
    """One value slot per key of a route, plus ``extra`` slots after them.

    The slots hold each factor of the ``fold`` layout (:class:`FoldLayout`)
    apart: the factors with a ``FOLDS`` op in one :class:`_ColumnBlock`,
    each other one in a :class:`_ListGroup` folded with its ``merge``;
    every factor has its own mask of the slots holding one of its values
    (``None`` is the identity).  ``has`` marks the slots holding a value
    at all: a product slot may hold a tuple of ``None``s, which is not a
    ``None`` slot.  A key starts from its node's value if the node is a
    member the token reached; the rest (relays, extra slots) start from
    ``None``.
    """

    def __init__(
        self,
        index: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        fold: FoldLayout,
        extra: int = 0,
    ) -> None:
        node, live = index.node, index.live()
        size = live.size + extra
        factors = agg.factors if fold.product else (agg,)
        self.product = fold.product
        columns, present = (
            _factor_values(values, len(factors)) if fold.product
            else ([values], None)
        )
        specs = [
            (op, column) for op, column in zip(fold.ops, columns)
            if op is not None
        ]
        self.block = _ColumnBlock(specs, node, live, size) if specs else None
        #: Per factor, ``(block row, None)`` or ``(None, list group)``.
        self.factors: List[tuple] = []
        self.lists: List[_ListGroup] = []
        for factor, op, column in zip(factors, fold.ops, columns):
            if op is not None:
                self.factors.append((len(self.factors) - len(self.lists), None))
            else:
                group = _ListGroup(factor.merge, column, node, live, size)
                self.lists.append(group)
                self.factors.append((None, group))
        if fold.product:
            self.has = np.zeros(size, dtype=bool)
            self.has[:live.size] = (
                live if present is None else live & present[node]
            )
        elif self.block is not None:
            self.has = self.block.present[0]
        else:
            self.has = self.lists[0].has

    def absorb(self, into: np.ndarray, sender: np.ndarray) -> None:
        """Fold the ``sender`` slots into ``into``, row by row.

        No row's sender may be another row's receiver: a sender's value
        is final.
        """
        carried = self.has[sender]
        if self.block is not None:
            self.block.absorb(into, sender)
        for group in self.lists:
            group.absorb(into, sender)
        self.has[into[carried]] = True

    def copy(self, into: np.ndarray, source: np.ndarray) -> None:
        """Set the ``into`` slots to the values in ``source``."""
        if self.block is not None:
            self.block.copy(into, source)
        for group in self.lists:
            group.copy(into, source)
        self.has[into] = self.has[source]

    def bits(self, slots: np.ndarray) -> np.ndarray:
        """``payload_bits`` of the values in ``slots`` (1 for ``None``):
        a product's ``TUPLE_OVERHEAD_BITS`` plus its factors'."""
        parts = [group.bits(slots) for group in self.lists]
        if self.block is not None:
            parts.append(self.block.bits(slots))
        total = parts[0] if len(parts) == 1 else sum(parts)
        if not self.product:
            return total
        return np.where(self.has[slots], TUPLE_OVERHEAD_BITS + total, 1)

    def objects(self, slots: np.ndarray) -> List[object]:
        """The values in ``slots`` as Python objects (``None`` for none)."""
        columns = [
            group.objects(slots) if group is not None
            else self.block.objects(row, slots)
            for row, group in self.factors
        ]
        if not self.product:
            return columns[0]
        return [
            value if ok else None for value, ok in zip(
                zip(*columns), self.has[slots].tolist()
            )
        ]


class ReverseArrayKernel(ArrayProgram):
    """The reversal: a route's time-reversed convergecast (pass 2).

    Its reference is the reversal twin in ``tests/twins.py``.
    ``fold`` lays out the value store (:class:`_Accumulators`).  An
    answer is ``("a", pid, value)`` on the ledger and ``(pid, sender key
    id or -1, value bits)`` in the pool: see the module docstring.
    """

    name = "pa_reverse"

    def __init__(
        self,
        route: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        fold: FoldLayout,
        capacity: int = 1,
    ) -> None:
        index = self.index = route
        #: Answers a key still waits for: one per message it sent.
        self.expected = index.out_counts.copy()
        self.store = _Accumulators(index, agg, values, fold)
        self._pool = EdgePool(
            index.n, ("pid", "kid", "bits"), capacity=capacity
        )
        #: Part aggregates, in the scalar dict's chronological order.
        self.results: Dict[int, object] = {}

    def _fire(self, kids: np.ndarray, strict_bits: bool) -> None:
        """Keys with every answer in: report to the wave parent, in order."""
        index = self.index
        parent = index.parent[kids]
        root = parent < 0
        if root.any():
            done = kids[root]
            self.results.update(zip(
                index.part[done].tolist(), self.store.objects(done)
            ))
            kids, parent = kids[~root], parent[~root]
        if not kids.size:
            return
        has = self.store.has[kids]
        self._pool.push(
            index.node[kids], parent, 0, 0,
            pid=index.part[kids], kid=np.where(has, kids, -1),
            bits=self.store.bits(kids) if strict_bits else 1,
        )

    def _answer_bits(self, emitted) -> np.ndarray:
        return self.index.pid_bits[emitted["pid"]] + emitted["bits"]

    def array_start(self, actx) -> None:
        # None answers for every non-parent in-edge of the route, in key
        # order, preserving per-key arrival order; a key's parent edge
        # waits for the value.
        index = self.index
        if index.fan_kid.size:
            self._pool.push(
                index.node[index.fan_kid], index.fan_src, 0, 0,
                pid=index.part[index.fan_kid], kid=-1, bits=1,
            )
        self._fire(np.flatnonzero(self.expected == 0), actx.strict)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            into = self.index.ids(d.dst * self.index.stride + d.cols["pid"])
            sender = d.cols["kid"]
            carried = np.flatnonzero(sender >= 0)
            if carried.size:
                self.store.absorb(into[carried], sender[carried])
            np.subtract.at(self.expected, into, 1)
            # A key fires at its last answer: in the order of those rows.
            done = np.flatnonzero(self.expected[into] == 0)
            if done.size:
                done = done[first_occurrence_mask(into[done][::-1])[::-1]]
                self._fire(into[done], actx.strict)
        _flush(actx, d, self._pool, ("pid", "kid"), self._answer_bits)


class AllReduceArrayKernel(ArrayProgram):
    """The all-reduce on a learned wave forest (pass 4).

    Its reference is the all-reduce twin in ``tests/twins.py``.
    A key's forest neighbors are a CSR of key ids, parent first; a key
    counts the neighbors it has still to hear from and sums their key ids,
    so when one is left the sum names it.  A packet carries its receiver's
    key id and its sender's, or -1 for a total: a ``"u"`` partial's value
    is its sender's accumulator, final from the send on (the one message a
    key gets after it is the total or the other half of the part, and
    neither is folded in); a ``"d"`` total's is its part's.  The store
    (:class:`_Accumulators`) has a slot per key and one per part for its
    total, formed once: where a key hears from every neighbor, or on the
    edge where two partials cross, merged parent side first.
    """

    name = "pa_allreduce"

    def __init__(
        self,
        route: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        fold: FoldLayout,
        capacity: int = 1,
    ) -> None:
        index = self.index = route
        K = self._K = index.keys.size
        self.deg, self.starts, self.nbr, unheard = index.neighbors()
        #: Neighbors still to hear from, and the sum of their key ids.
        self.left = self.deg.copy()
        self.unheard = unheard.copy()
        #: The key each key sent its partial to (-1: none yet).
        self.sent_to = np.full(K, -1, dtype=np.int64)
        #: Keys holding their part's total.
        self.holds = np.zeros(K, dtype=bool)
        self.store = _Accumulators(
            index, agg, values, fold, extra=index.leaders.size
        )
        self.formed = np.zeros(index.leaders.size, dtype=bool)
        #: Per part, its total's bits once a packet carried it (-1: none).
        self._total_bits = np.full(index.leaders.size, -1, dtype=np.int64)
        self._pool = EdgePool(index.n, ("into", "kid"), capacity=capacity)

    @property
    def results(self) -> Dict[int, object]:
        """The totals of the parts that formed one, in part order (built
        on each read: read it once)."""
        pids = np.flatnonzero(self.formed)
        return dict(zip(pids.tolist(), self.store.objects(self._K + pids)))

    def _form(self, pids: np.ndarray, first: np.ndarray,
              second: Optional[np.ndarray]) -> None:
        """Parts ``pids`` (each once, none formed) total ``first``, merged
        with ``second`` where given."""
        self.formed[pids] = True
        slot = self._K + pids
        self.store.copy(slot, first)
        if second is not None:
            self.store.absorb(slot, second)

    def _finish(self, kids: np.ndarray, pos: np.ndarray, em: list) -> None:
        """Keys ``kids`` hold the total: hand it to every neighbor but the
        one each sent its partial to."""
        self.holds[kids] = True
        origin, into, _within = csr_expand(
            self.starts, self.deg, self.nbr, kids
        )
        keep = into != self.sent_to[kids][origin]
        origin = origin[keep]
        em.append((
            self.index.node[kids[origin]], into[keep], pos[origin],
            np.full(origin.size, -1, dtype=np.int64),
        ))

    def _partial(self, kids: np.ndarray, into: np.ndarray, pos: np.ndarray,
                 em: list) -> None:
        self.sent_to[kids] = into
        em.append((self.index.node[kids], into, pos, kids))

    def _push(self, em: list) -> None:
        """A node's sends in the order of its keys' first arrival, each
        key's in neighbor order: the scalar enqueue sequence.  Each group
        is in position order, keys have distinct positions and a key's
        rows are one run of one group, so a stable sort by position
        merges two groups into that order."""
        if not em:
            return
        src, into, pos, kid = _gather(em)
        if len(em) > 1:
            order = np.argsort(pos, kind="stable")
            src, into, kid = src[order], into[order], kid[order]
        self._pool.push(src, self.index.node[into], 0, 0, into=into, kid=kid)

    def _packet_bits(self, emitted) -> np.ndarray:
        """A partial's bits are its sender's accumulator's — final since
        the send — a total's its part's, final since it formed."""
        kid = emitted["kid"]
        pid = self.index.part[emitted["into"]]
        total = kid < 0
        # A total goes down every forest edge of its part: priced at its
        # first packet, with this flush's partials.
        fresh = pid[total]
        fresh = fresh[self._total_bits[fresh] < 0]
        partial = kid[~total]
        bits = self.store.bits(np.concatenate((partial, self._K + fresh)))
        self._total_bits[fresh] = bits[partial.size:]
        out = self.index.pid_bits[pid]
        out[~total] += bits[:partial.size]
        out[total] += self._total_bits[pid[total]]
        return out

    def array_start(self, actx) -> None:
        em: list = []
        lone = np.flatnonzero(self.deg == 1)
        self._partial(lone, self.nbr[self.starts[lone]], lone, em)
        alone = np.flatnonzero(self.deg == 0)
        if alone.size:
            self._form(self.index.part[alone], alone, None)
            self._finish(alone, alone, em)
        self._push(em)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            index = self.index
            into, kid = d.cols["into"], d.cols["kid"]
            # A total (kid -1) only reaches a key that has sent its
            # partial, so a match is the other half of the part.
            meet = self.sent_to[into] == kid
            folds = (kid >= 0) ^ meet
            done = ~folds  # rows whose key now holds its part's total
            em: list = []
            if meet.any():
                # Merged parent side first, once per part.
                m = np.flatnonzero(meet)
                pids = index.part[into[m]]
                fresh = first_occurrence_mask(pids) & ~self.formed[pids]
                m, pids = m[fresh], pids[fresh]
                if m.size:
                    up = index.parent[into[m]] == d.src[m]
                    self._form(
                        pids, np.where(up, kid[m], into[m]),
                        np.where(up, into[m], kid[m]),
                    )
            # Keys that folded: a total where none is left, a partial to
            # the last neighbor where one is.
            fold = np.flatnonzero(folds)
            if fold.size:
                receivers, senders = into[fold], kid[fold]
                self.store.absorb(receivers, senders)
                np.subtract.at(self.left, receivers, 1)
                np.subtract.at(self.unheard, receivers, senders)
                first = fold[first_occurrence_mask(receivers)]
                keys = into[first]
                left = self.left[keys]
                center = left == 0
                if center.any():
                    c = keys[center]
                    self._form(index.part[c], c, None)
                    done[first[center]] = True
                last = left == 1
                if last.any():
                    k = keys[last]
                    self._partial(k, self.unheard[k], first[last], em)
            rows = np.flatnonzero(done)
            if rows.size:
                self._finish(into[rows], rows, em)
            self._push(em)
        _flush(actx, d, self._pool, ("into", "kid"), self._packet_bits)

    def reached(self) -> int:
        """How many part members ended holding their part's total."""
        return int(self._members().size)

    def _members(self) -> np.ndarray:
        index = self.index
        return index.node[
            self.holds & (index.part_of[index.node] == index.part)
        ]

    def value_at_node(self) -> List[object]:
        return _values_at(self.index, self.results, self._members())


class ReplayArrayKernel(ArrayProgram):
    """The replay of each part's aggregate along a route (pass 3).

    Its reference is the replay twin in ``tests/twins.py``.
    A packet is ``("r", pid, results[pid])`` on the ledger and the part id
    alone in the pool; a member's value is its part's entry in ``results``.
    """

    name = "pa_replay"

    def __init__(
        self,
        route: WaveIndex,
        results: Dict[int, object],
        capacity: int = 1,
    ) -> None:
        self.index = route
        self.results = results
        self._done = np.zeros(route.keys.size, dtype=bool)
        #: Members the replay reached.
        self.delivered = np.zeros(route.n, dtype=bool)
        self._bits = _EMPTY
        self._pool = EdgePool(route.n, ("pid",), capacity=capacity)

    def _forward(self, nodes: np.ndarray, pids: np.ndarray) -> None:
        index = self.index
        kid = index.ids(nodes * index.stride + pids)
        fresh = first_occurrence_mask(kid) & ~self._done[kid]
        self._done[kid] = True
        if not fresh.all():
            nodes, pids, kid = nodes[fresh], pids[fresh], kid[fresh]
        self.delivered[nodes[index.part_of[nodes] == pids]] = True
        origin, dsts, _within = csr_expand(
            index.out_starts, index.out_counts, index.out_dst, kid
        )
        if dsts.size:
            self._pool.push(nodes[origin], dsts, 0, 0, pid=pids[origin])

    def _packet_bits(self, emitted) -> np.ndarray:
        return self._bits[emitted["pid"]]

    def reached(self) -> int:
        """How many part members the replay delivered an aggregate to."""
        return int(np.count_nonzero(self.delivered))

    def value_at_node(self) -> List[object]:
        return _values_at(
            self.index, self.results, np.flatnonzero(self.delivered)
        )

    def array_start(self, actx) -> None:
        pids = np.fromiter(
            self.results, dtype=np.int64, count=len(self.results)
        )
        if actx.strict:
            self._bits = self.index.pid_bits.copy()
            self._bits[pids] += np.fromiter(
                map(payload_bits, self.results.values()), dtype=np.int64,
                count=pids.size,
            )
        if pids.size:
            self._forward(self.index.leaders[pids], pids)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            self._forward(d.dst, d.cols["pid"])
        _flush(actx, d, self._pool, ("pid",), self._packet_bits)


def wave_kernels(fold: FoldLayout):
    """The (broadcast, reversal, replay, all-reduce) kernels; ``fold`` is
    the plan's :func:`reverse_fold` layout, for both passes that fold."""
    return (
        WaveArrayKernel, partial(ReverseArrayKernel, fold=fold),
        ReplayArrayKernel, partial(AllReduceArrayKernel, fold=fold),
    )


def reverse_fold(
    values: Sequence[object], agg: Aggregation, phase: str = "pa_reverse",
) -> FoldLayout:
    """The :class:`FoldLayout` an array reversal or all-reduce folds
    ``values`` under.

    A product (``agg.factors``) over tuples of one factor value each is
    one group per factor; anything else is one group, ``agg`` itself.  A
    factor folds on columns when :func:`~repro.core.array_kernels.fold_op`
    folds its values and, for a lexicographic min / max, their packed key
    fits (magnitudes, totals and key widths are checked on the *global*
    values, so every restriction fits too).  Every other factor — top-k,
    floats, custom merges, values at or past 2**62 — folds a list with its
    own ``merge``, which the trace notes as a ``kernel_fallback`` of
    ``phase`` with the column layout's reason (and, in a product, the
    factor's name).
    """
    split = _factor_values(values, len(agg.factors)) if agg.factors else None
    product = split is not None
    factors = agg.factors if product else (agg,)
    columns = split[0] if product else [values]
    ops = []
    for factor, column in zip(factors, columns):
        try:
            op, packed = fold_op(factor, column)
            LexKey.fold_columns(op, packed.cols, _present_rows(packed))
        except KernelDecline as decline:
            note_kernel_fallback(
                phase, decline.reason,
                factor=factor.name if product else None,
            )
            op = None
        ops.append(op)
    return FoldLayout(tuple(ops), product)
