"""Array-native PA wave kernels: broadcast, reversal, replay, all-reduce.

The scalar :mod:`repro.core.wave` programs are event-driven: every message
arrival may gain a node its part's token or settle a block climb, and
either emits its follow-up sends at once.  Because *all* wave state is
per-node (the token byte) or per-``(node, part)`` (the ``ku``/``kd`` dedup
sets, and who has sent the node the part's token), a tick decomposes into
independent per-node event sequences, which makes the whole tick
resolvable with array passes: each potential action becomes a *request*
carrying the position of the event that raised it, and for every flag (or
dedup key) the request with the smallest position wins — exactly the
outcome of processing the events sequentially.  A send to a neighbor that
has sent the node the same part's token is dropped, as the scalar
handlers skip it.

Event positions interleave the two scalar activation hooks: a leader start
(``on_activate``, which runs before the node's inbox) gets position
``2 * i`` where ``i`` is the node's first inbox row, an arrival row ``i``
gets ``2 * i + 1``.  Within one event, sends are ordered by a fixed rank —
``su`` before ``bd`` before ``ru`` before ``ku`` before ``kd`` — which is
the order the scalar handlers emit them; sorting a node's emission rows by
``(position, rank, fan-out index)`` therefore reproduces the node's scalar
enqueue sequence, and the shared :class:`~repro.core.array_queue.EdgePool`
turns those sequences into the same wire schedule.

**The schedule does not depend on the values.**  Who sends to whom at
which tick is fixed by partition, shortcut and delay draw: the reversal
answers every recorded wave edge exactly once and the replay retraces
them (Lemma 4.4's "symmetrically").  The route is a
:class:`~repro.core.wave.WaveIndex`, the one type both twins write and
read: the broadcast kernel hands its two arenas over as the index's rows
(:meth:`WaveArrayKernel.route`), and a route the scalar programs learned
serves these kernels as it is.  So no packet carries a value.  A
reversal answer carries its sender's dense key id (-1 for ``None``) and
the receiver folds the *sender's accumulator* into its own; the
accumulator it reads is final, because a key fires once, after the last
answer it expects, and nothing is folded into a fired key again.  A
replay packet carries the part id; the value is the part's entry in the
results table.  Values live beside the schedule in one of two stores,
chosen once per solve where the plan is made (:func:`reverse_fold`): an
int64 column folded with ``ufunc.at``, or a Python list folded with the
aggregation's own ``merge`` in delivered-row order — the scalar fold
order, so even an order-sensitive merge returns the scalar result.  The
list costs one Python merge per value-carrying answer (one per key with a
wave parent), never one per message.

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
sorted order — the same order the scalar ``ReverseProgram`` uses.  Sorted
order is *restriction-stable*: a conflict-closed subset of parts (a
shard) sees exactly the relative key order it would inside the full run,
and the order survives any order-preserving relabeling of nodes and part
ids, which is what makes the sharded backend's per-shard reversals land
on the serial wire schedule bit-for-bit.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import (
    ColumnArena,
    KernelDecline,
    PayloadColumns,
    int_bits_array,
)
from ..congest.engine import ArrayProgram
from ..congest.message import payload_bits
from .aggregation import Aggregation
from .array_kernels import FOLDS, fold_op, int_column
from .array_queue import (
    EdgePool,
    KeySet,
    csr_expand,
    csr_slots,
    find_sorted,
    first_occurrence_mask,
    in_sorted,
)
from .treeops import _kernel
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
    """Array twin of :class:`~repro.core.wave.WaveProgram`."""

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
        self.token = np.asarray(
            [leader_tokens[pid] for pid in range(self.num_parts)],
            dtype=np.int64,
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

        emitted, wake = self._pool.select()
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


def _flush(actx, pool: EdgePool, names: Tuple[str, ...], bits_of) -> None:
    """One tick of a value-free packet pool: emit its ``names`` columns.

    ``bits_of(emitted)`` prices the emitted rows; it runs on an audited
    engine only.
    """
    emitted, wake = pool.select()
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


class _Accumulators:
    """One value slot per key of a route, plus ``extra`` slots after them.

    ``fold`` names the :data:`~repro.core.array_kernels.FOLDS` op that
    folds the values as one int64 column (:func:`reverse_fold` chose it):
    ``acc`` is that column, the op's identity where ``has`` is off.
    ``None`` keeps a Python list folded with ``agg.merge``.  A key starts
    from its node's value if the node is a member the token reached; the
    rest (relays, extra slots) start from ``None``.
    """

    def __init__(
        self,
        index: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        fold: Optional[str],
        extra: int = 0,
    ) -> None:
        if fold is None:
            self._ufunc = None
            self._merge = agg.merge
            self.acc = index.start_values(values) + [None] * extra
            self.has = np.fromiter(
                (a is not None for a in self.acc), dtype=bool,
                count=len(self.acc),
            )
        else:
            self._ufunc, identity = FOLDS[fold]
            columns = PayloadColumns.pack(values)
            live = index.live()
            if columns.present is not None:
                live &= columns.present[index.node]
            self.has = np.concatenate((live, np.zeros(extra, dtype=bool)))
            self.acc = np.full(self.has.size, identity, dtype=np.int64)
            self.acc[:live.size][live] = columns.cols[0][index.node[live]]

    def absorb(self, into: np.ndarray, sender: np.ndarray) -> None:
        """Fold the ``sender`` slots into ``into``, row by row.

        No row's sender may be another row's receiver: a sender's value
        is final.
        """
        carried = self.has[sender]
        if self._ufunc is not None:
            self._ufunc.at(self.acc, into, self.acc[sender])
        else:
            acc, merge = self.acc, self._merge
            for k, j in zip(into[carried].tolist(), sender[carried].tolist()):
                acc[k] = merge(acc[k], acc[j])
        self.has[into[carried]] = True

    def copy(self, into: np.ndarray, source: np.ndarray) -> None:
        """Set the ``into`` slots to the values in ``source``."""
        if self._ufunc is not None:
            self.acc[into] = self.acc[source]
        else:
            acc = self.acc
            for k, j in zip(into.tolist(), source.tolist()):
                acc[k] = acc[j]
        self.has[into] = self.has[source]

    def bits(self, slots: np.ndarray) -> np.ndarray:
        """``payload_bits`` of the values in ``slots`` (1 for ``None``)."""
        out = np.ones(slots.size, dtype=np.int64)
        has = self.has[slots]
        present = slots[has]
        if self._ufunc is not None:
            out[has] = int_bits_array(self.acc[present])
        else:
            acc = self.acc
            out[has] = np.fromiter(
                (payload_bits(acc[k]) for k in present.tolist()),
                dtype=np.int64, count=present.size,
            )
        return out

    def objects(self, slots: np.ndarray) -> List[object]:
        """The values in ``slots`` as Python objects (``None`` for none)."""
        if self._ufunc is None:
            return [self.acc[k] for k in slots.tolist()]
        return [
            value if ok else None for value, ok in zip(
                self.acc[slots].tolist(), self.has[slots].tolist()
            )
        ]


class ReverseArrayKernel(ArrayProgram):
    """Array twin of :class:`~repro.core.wave.ReverseProgram`.

    ``fold`` picks the value store (:class:`_Accumulators`).  Either way an
    answer is ``("a", pid, value)`` on the ledger and ``(pid, sender key
    id or -1, value bits)`` in the pool: see the module docstring.
    """

    name = "pa_reverse"

    def __init__(
        self,
        route: WaveIndex,
        agg: Aggregation,
        values: Sequence[object],
        capacity: int = 1,
        fold: Optional[str] = None,
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
        _flush(actx, self._pool, ("pid", "kid"), self._answer_bits)


class AllReduceArrayKernel(ArrayProgram):
    """Array twin of :class:`~repro.core.wave.AllReduceProgram`.

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
        capacity: int = 1,
        fold: Optional[str] = None,
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
        self._total_bits = np.zeros(index.leaders.size, dtype=np.int64)
        self._pool = EdgePool(index.n, ("into", "kid"), capacity=capacity)

    @property
    def results(self) -> Dict[int, object]:
        """The totals of the parts that formed one, in part order (built
        on each read: read it once)."""
        pids = np.flatnonzero(self.formed)
        return dict(zip(pids.tolist(), self.store.objects(self._K + pids)))

    def _form(self, pids: np.ndarray, first: np.ndarray,
              second: Optional[np.ndarray], strict_bits: bool) -> None:
        """Parts ``pids`` (each once, none formed) total ``first``, merged
        with ``second`` where given."""
        self.formed[pids] = True
        slot = self._K + pids
        self.store.copy(slot, first)
        if second is not None:
            self.store.absorb(slot, second)
        if strict_bits:
            self._total_bits[pids] = self.store.bits(slot)

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
        the send — a total's its part's."""
        index = self.index
        kid = emitted["kid"]
        pid = index.part[emitted["into"]]
        bits = index.pid_bits[pid]
        total = kid < 0
        bits[total] += self._total_bits[pid[total]]
        bits[~total] += self.store.bits(kid[~total])
        return bits

    def array_start(self, actx) -> None:
        em: list = []
        lone = np.flatnonzero(self.deg == 1)
        self._partial(lone, self.nbr[self.starts[lone]], lone, em)
        alone = np.flatnonzero(self.deg == 0)
        if alone.size:
            self._form(self.index.part[alone], alone, None, actx.strict)
            self._finish(alone, alone, em)
        self._push(em)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            strict = actx.strict
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
                        np.where(up, into[m], kid[m]), strict,
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
                    self._form(index.part[c], c, None, strict)
                    done[first[center]] = True
                last = left == 1
                if last.any():
                    k = keys[last]
                    self._partial(k, self.unheard[k], first[last], em)
            rows = np.flatnonzero(done)
            if rows.size:
                self._finish(into[rows], rows, em)
            self._push(em)
        _flush(actx, self._pool, ("into", "kid"), self._packet_bits)

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
    """Array twin of :class:`~repro.core.wave.ReplayProgram`.

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
        _flush(actx, self._pool, ("pid",), self._packet_bits)


def wave_kernels(fold: Optional[str]):
    """The (broadcast, reversal, replay, all-reduce) kernels; ``fold`` is
    the plan's :func:`reverse_fold` choice, for both passes that fold."""
    return (
        WaveArrayKernel, partial(ReverseArrayKernel, fold=fold),
        ReplayArrayKernel, partial(AllReduceArrayKernel, fold=fold),
    )


def array_wave_supported(
    engine, leader_tokens: Dict[int, object], phase: str = "pa_wave"
) -> bool:
    """Whether the array wave kernels run this solve (else: scalar programs).

    Requires an engine that runs kernels and int leader tokens below
    2**62 — the token is all a wave packet carries.  The values are not
    looked at: they ride beside the wire schedule, in whichever store
    :func:`reverse_fold` picks.  A decline is a ``kernel_fallback`` of
    ``phase`` on the trace, and the scalar programs run unchanged.
    """
    return _kernel(
        engine, phase, lambda: int_column(list(leader_tokens.values()))
    ) is not None


def reverse_fold(
    engine, values: Sequence[object], agg: Aggregation,
    phase: str = "pa_reverse",
) -> Optional[str]:
    """How an array reversal folds ``values``: a ``FOLDS`` op, or ``None``.

    An op when a ufunc folds ``agg`` over one bare int (or ``None``)
    column with int64-safe magnitudes; ``None`` — the same kernel folding
    a list with ``agg.merge`` — for everything else (tuple-packed batches,
    MST composite keys, floats, custom merges), which the trace notes as a
    ``kernel_fallback`` of ``phase`` with the column layout's reason.
    """
    def column() -> str:
        op, columns = fold_op(agg, values)
        if not columns.bare or columns.is_bool[0]:
            raise KernelDecline("non_int")
        return op

    return _kernel(engine, phase, column)
