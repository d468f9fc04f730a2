"""Array-native PA wave kernels: broadcast, reversal, replay.

The scalar :mod:`repro.core.wave` programs are event-driven: every message
arrival mutates per-node flags and may emit flag-gated follow-up sends.
Because *all* wave state is per-node (token/flag bytes) or per-``(node,
part)`` (the ``ku``/``kd`` dedup sets), a tick decomposes into independent
per-node event sequences, which makes the whole tick resolvable with array
passes: each potential action becomes a *request* carrying the position of
the event that raised it, and for every flag (or dedup key) the request
with the smallest position wins — exactly the outcome of processing the
events sequentially.

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
them (Lemma 4.4's "symmetrically").  So no packet carries a value.  A
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
:mod:`repro.core.wave`): the first solve on a setup runs broadcast and
reversal over the wire record — two wire passes; what a node remembers of
them is its wave parent and which of its wave edges were answered under
the child tag, i.e. the wave forest (:meth:`WaveIndex.forest`, ``#keys -
#parts`` edges), and the replay of that same solve already runs on it —
one forest pass; every later solve on that setup runs reversal and replay
on the forest — two forest passes, no broadcast.  Both passes take a
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

import copy
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
from ..congest.message import TAG_BITS, TUPLE_OVERHEAD_BITS, payload_bits
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
    sorted_unique,
)
from .treeops import _kernel

_EMPTY = np.empty(0, dtype=np.int64)

#: Wire codes for the five wave tags (ru, su, bd, ku, kd), and the in-event
#: emission rank.  The token fan-out relies on ``BD == SU + 1`` and on su /
#: bd holding ranks 0 / 1: a fan-out row's tag and rank are its ``crosses``
#: bit plus ``SU`` / plus 0.
RU, SU, BD, KU, KD = range(5)
_RANK = {SU: 0, BD: 1, RU: 2, KU: 3, KD: 4}
_NO_KINDS = (0,) * 5


class _KeyTable:
    """Sorted int64-key -> int64-value lookup with a default."""

    __slots__ = ("keys", "vals", "default")

    def __init__(self, keys: np.ndarray, vals: np.ndarray, default: int) -> None:
        order = np.argsort(keys)
        self.keys = keys[order]
        self.vals = vals[order]
        self.default = default

    def get(self, query: np.ndarray) -> np.ndarray:
        out = np.full(query.size, self.default, dtype=np.int64)
        pos, hit = find_sorted(self.keys, query)
        out[hit] = self.vals[pos[hit]]
        return out


class WaveIndex:
    """A setup's route over dense ``(node, part)`` key ids.

    The array form of :class:`~repro.core.wave.WaveRecord`, all reversal
    and replay read.  Key id ``k`` is the rank of ``keys[k] == node[k] *
    stride + part[k]`` among every key that sent, received or led — the
    canonical sorted order.  ``parent[k]`` is the key's wave parent node
    (-1: a leader key, the root of its part's wave tree);
    ``out_dst[out_starts[k]:][:out_counts[k]]`` are the destinations of the
    messages key ``k`` sends, in send order; ``fan_kid`` / ``fan_src`` are
    the non-parent in-edges reversal answers ``None`` at once (receiving
    key id and sender node, in key order, arrival order within a key).
    Beside the edges, the few columns the two passes need of the setup:
    ``part_of``, the ``reached`` mask, ``leaders``, ``pid_bits``.

    Built from a finished broadcast it is the *wire* record;
    :meth:`forest` filters it to the wave forest — the same object with
    fewer edges, and the passes run unchanged on either.
    """

    __slots__ = (
        "n", "stride", "part_of", "reached", "leaders", "pid_bits",
        "keys", "node", "part", "parent", "out_starts", "out_counts",
        "out_dst", "fan_kid", "fan_src",
    )

    def __init__(self, wave: "WaveArrayKernel") -> None:
        self.n = wave.n
        P = self.stride = wave.stride
        self.part_of = wave.part_of
        self.reached = wave.has_token
        self.leaders = wave.leaders
        self.pid_bits = wave.pid_bits
        out_key = wave.out_arena.column("key")
        in_key = wave.in_arena.column("key")
        leader_key = (
            wave.leaders * P + np.arange(wave.num_parts, dtype=np.int64)
        )[wave.started]
        self.keys = sorted_unique(
            np.concatenate((out_key, in_key, leader_key))
        )
        self.node = self.keys // P
        self.part = self.keys % P
        # The wave parent is the sender of a key's first arrival; a leader
        # key has none, whatever reached it before its delayed start.
        self.parent = np.full(self.keys.size, -1, dtype=np.int64)
        first = first_occurrence_mask(in_key)
        self.parent[self.ids(in_key[first])] = wave.in_arena.column("src")[first]
        self.parent[self.ids(leader_key)] = -1
        self._set_out(self.ids(out_key), wave.out_arena.column("dst"))
        # Every in-edge but a key's parent edge — its first arrival,
        # unless it is a leader key.
        kid = self.ids(in_key)
        order = np.argsort(kid, kind="stable")
        kid = kid[order]
        fan = ~(first_occurrence_mask(kid) & (self.parent[kid] >= 0))
        self.fan_kid = kid[fan]
        self.fan_src = wave.in_arena.column("src")[order[fan]]

    def _set_out(self, sender: np.ndarray, dst: np.ndarray) -> None:
        """The out-edge CSR of ``(sender key id, destination)`` rows."""
        self.out_counts = np.bincount(sender, minlength=self.keys.size)
        self.out_starts = np.cumsum(self.out_counts) - self.out_counts
        self.out_dst = dst[np.argsort(sender, kind="stable")]

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """Key ids of recorded ``keys``."""
        return np.searchsorted(self.keys, keys)

    @property
    def edges(self) -> int:
        """Messages one pass over this route sends."""
        return int(self.out_dst.size)

    def forest(self) -> "WaveIndex":
        """The route filtered to the wave forest.

        Of the messages a key sent, the first per destination whose
        ``(destination, part)`` key has the sender as its wave parent
        stays, in send order — one in-edge per non-leader key — and no
        in-edge is left to answer ``None``.
        """
        kept = copy.copy(self)
        sender = np.repeat(
            np.arange(self.keys.size, dtype=np.int64), self.out_counts
        )
        child = self.ids(self.out_dst * self.stride + self.part[sender])
        own = self.parent[child] == self.node[sender]
        own[own] = first_occurrence_mask(child[own])
        kept._set_out(sender[own], self.out_dst[own])
        kept.fan_kid = kept.fan_src = _EMPTY
        return kept


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
            entries = getattr(annotations, "priority_entries", None)
            if entries is not None:
                pk, pv = entries()
            else:
                rd = annotations.root_depth
                pk = np.fromiter(
                    (v * P + pid for (v, pid) in rd), dtype=np.int64,
                    count=len(rd),
                )
                pv = np.fromiter(rd.values(), dtype=np.int64, count=len(rd))
            self._prio = _KeyTable(pk, pv, 1 << 30)

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
        #: Per part, the bits of a ``(tag, pid, ...)`` packet before its
        #: last component, and of the whole token packet.
        self.pid_bits = (
            TUPLE_OVERHEAD_BITS + TAG_BITS
            + int_bits_array(np.arange(self.num_parts, dtype=np.int64))
        )
        self.pbits = self.pid_bits + int_bits_array(self.token)

        self.has_token = np.zeros(n, dtype=bool)
        #: ``sent_su`` and ``sent_bd`` in one: the scalar program sets the
        #: two together, wherever it sets either.
        self.sent_down = np.zeros(n, dtype=bool)
        self.sent_ru = np.zeros(n, dtype=bool)
        self.injected = np.zeros(n, dtype=bool)
        self.started = np.zeros(self.num_parts, dtype=bool)
        self._unstarted = self.num_parts
        self._kup = KeySet()
        self._kdown = KeySet()
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

    def _start_leaders(self, actx, d, em, down, inject) -> None:
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
        is_rep = self.rep_of[lead] == lead
        if not is_rep.all():
            # A non-rep leader sends ru unconditionally (no flag check in
            # the scalar _leader_start) and sets the flag.
            nr = ~is_rep
            self.sent_ru[lead[nr]] = True
            em.append(_sends(
                lead[nr], self.fparent[lead[nr]], pos[nr], RU, pend[nr]
            ))
            pend, lead, pos = pend[is_rep], lead[is_rep], pos[is_rep]
        if pend.size:
            down.append((lead, pend, pos))
            if self._blocks:
                # via_block is False at a leader start: inject.
                fresh = ~self.injected[lead]
                self.injected[lead[fresh]] = True
                inject.append((lead[fresh], pend[fresh], pos[fresh]))

    def array_tick(self, actx, d) -> None:
        P = self.stride
        dst = d.dst
        m = dst.size
        if m:
            tag = d.cols["tag"]
            pid = d.cols["pid"]
            key = dst * P + pid
            self.in_arena.append(key=key, src=d.src)
            # Which kinds arrived at all: absent ones cost nothing below.
            kinds = np.bincount(tag, minlength=5).tolist()
        else:
            kinds = _NO_KINDS

        # Emission groups, (src, dst, pos, rank, idx, tag, pid, p0, p1)
        # columns each, and the requests that raise them: to hand a token
        # on down the sub-part tree and across boundary edges, and to
        # enter a block — (node, pid, pos) columns each.
        em: List[Tuple[np.ndarray, ...]] = []
        down: List[Tuple[np.ndarray, ...]] = []
        inject: List[Tuple[np.ndarray, ...]] = []
        ku_rows = kd_rows = _EMPTY

        if self._unstarted:
            self._start_leaders(actx, d, em, down, inject)

        if m:
            # Token grant: the first grant-capable arrival per node wins.
            cand = ~self.has_token[dst]
            if kinds[KU] or kinds[KD]:
                # ru / su / bd always carry the grant; a kd, and a ku that
                # is fresh for its (node, part), only to a part member.  A
                # fresh ku that will lose its kup claim to an inject this
                # tick is never reachable here: the inject's trigger
                # already set has_token at an earlier position.
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
                wp = pid[w]
                wt = tag[w]
                wpos = 2 * w + 1
                self.has_token[wn] = True
                wrep = self.rep_of[wn] == wn
                not_su = wt != SU
                ra = np.flatnonzero(wrep & not_su)
                if ra.size:
                    rn = wn[ra]
                    down.append((rn, wp[ra], wpos[ra]))
                    if self._blocks:
                        # Inject unless the token came through the block.
                        fresh = ~self.injected[rn]
                        self.injected[rn[fresh]] = True
                        ra = ra[fresh & (wt[ra] < KU)]
                        inject.append((wn[ra], wp[ra], wpos[ra]))
                # Non-rep winners of ru/bd/ku/kd route the token up.
                rr = np.flatnonzero(~wrep & not_su)
                if rr.size:
                    rn = wn[rr]
                    keep = ~self.sent_ru[rn]
                    if not keep.all():
                        rr, rn = rr[keep], rn[keep]
                    self.sent_ru[rn] = True
                    em.append(_sends(
                        rn, self.fparent[rn], wpos[rr], RU, wp[rr]
                    ))
            if kinds[SU]:
                # su arrivals always hand on, gated on the flag alone.
                si = np.flatnonzero(tag == SU)
                down.append((dst[si], pid[si], 2 * si + 1))

        # -- su to the children, then bd across the boundary ------------
        # No two requests of a tick name one node: a node hears su once in
        # a wave (from its tree parent, which sends it once), a rep never
        # does, and a leader that started this tick holds the token before
        # any arrival could win it.  So only the flag gates a request.
        if down:
            rn, rp, rpos = _gather(down)
            keep = ~self.sent_down[rn]
            if not keep.all():
                rn, rp, rpos = rn[keep], rp[keep], rpos[keep]
            self.sent_down[rn] = True
            starts, counts, flat, crosses = self._fan
            origin, slots, within = csr_slots(starts, counts, rn)
            if slots.size:
                crosses = crosses[slots]
                zero = np.zeros(slots.size, dtype=np.int64)
                em.append((
                    rn[origin], flat[slots], rpos[origin], crosses, within,
                    crosses + SU, rp[origin], zero, zero,
                ))

        if self._blocks:
            self._route_blocks(dst, pid if m else _EMPTY, ku_rows, kd_rows,
                               inject, em)

        # -- assemble, order, and flush --------------------------------
        if em:
            src, to, pos, rank, idx, tcol, pcol, p0, p1 = _gather(em)
            # The pool reads enqueue order source by source, so ordering
            # the rows by source first spares it a sort of its own.
            order = np.lexsort((idx, rank, pos, src))
            self._pool.push(
                src[order], to[order], p0[order], p1[order],
                tag=tcol[order], pid=pcol[order],
            )

        emitted, wake = self._pool.select()
        if emitted is not None:
            bits = self.pbits[emitted["pid"]] if actx.strict_bits else None
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
        """
        P = self.stride
        kd_req: List[Tuple[np.ndarray, ...]] = []
        # -- kup resolution: fresh ku arrivals vs injects ---------------
        cparts: List[Tuple[np.ndarray, ...]] = []
        if ku_rows.size:
            cparts.append((
                dst[ku_rows], pid[ku_rows], 2 * ku_rows + 1,
                np.zeros(ku_rows.size, dtype=bool),
            ))
        if inject:
            inode, ipid, ipos = _gather(inject)
            ikey = inode * P + ipid
            # pid not in up_parts, or already claimed: block_down instead.
            live = in_sorted(self._up_keys, ikey) & ~self._kup.contains(ikey)
            kd_req.append((inode[~live], ipid[~live], ipos[~live]))
            cparts.append((
                inode[live], ipid[live], ipos[live],
                np.ones(int(live.sum()), dtype=bool),
            ))
        if cparts:
            cn, cp, cpos, cinj = _gather(cparts)
            ckey = cn * P + cp
            order = np.lexsort((cpos, ckey))
            win = np.zeros(cn.size, dtype=bool)
            win[order[first_occurrence_mask(ckey[order])]] = True
            self._kup.add(ckey[win])
            # Losing injects fall through to block_down; losing ku
            # arrivals are skipped entirely (the whole handler branch is
            # guarded by the kup_done test).
            lose = ~win & cinj
            kd_req.append((cn[lose], cp[lose], cpos[lose]))
            # Winners: climb if the part still goes up, else turn around.
            wk = np.flatnonzero(win)
            up = in_sorted(self._up_keys, ckey[wk])
            climb = wk[up]
            if climb.size:
                em.append(_sends(
                    cn[climb], self.tparent[cn[climb]], cpos[climb], KU,
                    cp[climb], self._prio.get(ckey[climb]), cp[climb],
                ))
            root = wk[~up]
            kd_req.append((cn[root], cp[root], cpos[root]))

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
        return WaveIndex(self)


def _flush(actx, pool: EdgePool, names: Tuple[str, ...], bits_of) -> None:
    """One tick of a value-free packet pool: emit its ``names`` columns.

    ``bits_of(emitted)`` prices the emitted rows; it runs under
    ``strict_bits`` only.
    """
    emitted, wake = pool.select()
    if emitted is not None:
        actx.emit(
            emitted["src"],
            emitted["dst"],
            cols={name: emitted[name] for name in names},
            bits=bits_of(emitted) if actx.strict_bits else None,
        )
    actx.wake(wake)


class ReverseArrayKernel(ArrayProgram):
    """Array twin of :class:`~repro.core.wave.ReverseProgram`.

    ``fold`` names the :data:`~repro.core.array_kernels.FOLDS` op that
    folds the values as one int64 column (:func:`reverse_fold` chose it);
    ``None`` keeps them in a list under ``agg.merge``.  Either way an
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
        # A key starts from its node's value if the node is a member the
        # token reached; the rest (relays) start from None.
        live = (index.part_of[index.node] == index.part) & index.reached[
            index.node
        ]
        if fold is None:
            self._ufunc = None
            self._merge = agg.merge
            self.acc = [
                values[v] if ok else None
                for v, ok in zip(index.node.tolist(), live.tolist())
            ]
            self.acc_has = np.fromiter(
                (a is not None for a in self.acc), dtype=bool,
                count=len(self.acc),
            )
        else:
            self._ufunc, identity = FOLDS[fold]
            columns = PayloadColumns.pack(values)
            if columns.present is not None:
                live &= columns.present[index.node]
            self.acc_has = live
            self.acc = np.full(index.keys.size, identity, dtype=np.int64)
            self.acc[live] = columns.cols[0][index.node[live]]
        self._pool = EdgePool(
            index.n, ("pid", "kid", "bits"), capacity=capacity
        )
        #: Part aggregates, in the scalar dict's chronological order.
        self.results: Dict[int, object] = {}

    def _absorb(self, into: np.ndarray, sender: np.ndarray) -> None:
        """Fold the ``sender`` keys' accumulators into ``into``, row by row.

        A sender has fired, so its accumulator is final; a receiver has
        not, so no row's sender is another row's receiver.
        """
        if self._ufunc is not None:
            self._ufunc.at(self.acc, into, self.acc[sender])
        else:
            acc, merge = self.acc, self._merge
            for k, j in zip(into.tolist(), sender.tolist()):
                acc[k] = merge(acc[k], acc[j])
        self.acc_has[into] = True

    def _value_bits(self, kids: np.ndarray) -> np.ndarray:
        """``payload_bits`` of the (present) accumulators of ``kids``."""
        if self._ufunc is not None:
            return int_bits_array(self.acc[kids])
        acc = self.acc
        return np.fromiter(
            (payload_bits(acc[k]) for k in kids.tolist()), dtype=np.int64,
            count=kids.size,
        )

    def _fire(self, kids: np.ndarray, strict_bits: bool) -> None:
        """Keys with every answer in: report to the wave parent, in order."""
        index = self.index
        parent = index.parent[kids]
        root = parent < 0
        if root.any():
            done = kids[root]
            if self._ufunc is not None:
                values = [
                    value if ok else None for value, ok in zip(
                        self.acc[done].tolist(), self.acc_has[done].tolist()
                    )
                ]
            else:
                values = [self.acc[k] for k in done.tolist()]
            self.results.update(zip(index.part[done].tolist(), values))
            kids, parent = kids[~root], parent[~root]
        if not kids.size:
            return
        has = self.acc_has[kids]
        bits = 1
        if strict_bits:
            bits = np.ones(kids.size, dtype=np.int64)
            bits[has] = self._value_bits(kids[has])
        self._pool.push(
            index.node[kids], parent, 0, 0,
            pid=index.part[kids], kid=np.where(has, kids, -1), bits=bits,
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
        self._fire(np.flatnonzero(self.expected == 0), actx.strict_bits)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            into = self.index.ids(d.dst * self.index.stride + d.cols["pid"])
            sender = d.cols["kid"]
            carried = np.flatnonzero(sender >= 0)
            if carried.size:
                self._absorb(into[carried], sender[carried])
            np.subtract.at(self.expected, into, 1)
            # A key fires at its last answer: in the order of those rows.
            done = np.flatnonzero(self.expected[into] == 0)
            if done.size:
                done = done[first_occurrence_mask(into[done][::-1])[::-1]]
                self._fire(into[done], actx.strict_bits)
        _flush(actx, self._pool, ("pid", "kid"), self._answer_bits)


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
        out: List[object] = [None] * self.index.n
        results = self.results
        reached = np.flatnonzero(self.delivered)
        for v, pid in zip(reached.tolist(), self.index.part_of[reached].tolist()):
            out[v] = results[pid]
        return out

    def array_start(self, actx) -> None:
        pids = np.fromiter(
            self.results, dtype=np.int64, count=len(self.results)
        )
        if actx.strict_bits:
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
    """The (broadcast, reversal, replay) kernels, in the order a solve runs
    them; ``fold`` is the plan's :func:`reverse_fold` choice."""
    return (
        WaveArrayKernel, partial(ReverseArrayKernel, fold=fold),
        ReplayArrayKernel,
    )


def array_wave_supported(
    engine, leader_tokens: Dict[int, object], phase: str = "pa_wave"
) -> bool:
    """Whether the array wave kernels run this solve (else: scalar programs).

    Requires the array engine and int leader tokens below 2**62 — the
    token is all a wave packet carries.  The values are not looked at:
    they ride beside the wire schedule, in whichever store
    :func:`reverse_fold` picks.  A decline is a ``kernel_fallback`` of
    ``phase`` on the trace, and the scalar programs run unchanged under
    the array engine.
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
