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
the order the scalar handlers emit them; sorting all emission rows by
``(position, node, rank, fan-out index)`` therefore reproduces the scalar
enqueue sequence, and the shared :class:`~repro.core.array_queue.EdgePool`
turns that sequence into the same wire schedule.

The reversal iterates its recorded ``(node, part)`` keys in canonical
sorted order — the same order the scalar ``ReverseProgram`` uses.  Sorted
order is *restriction-stable*: a conflict-closed subset of parts (a
shard) sees exactly the relative key order it would inside the full run,
and the order survives any order-preserving relabeling of nodes and part
ids, which is what makes the sharded backend's per-shard reversals land
on the serial wire schedule bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import ColumnArena, KernelDecline, int_bits_array
from ..congest.engine import ArrayProgram
from .aggregation import Aggregation
from .array_kernels import FOLDS, fold_op, int_column
from .array_queue import (
    EdgePool,
    KeySet,
    csr_expand,
    find_sorted,
    first_occurrence_mask,
    in_sorted,
)
from .treeops import _kernel

_EMPTY = np.empty(0, dtype=np.int64)

#: Wire codes for the five wave tags (ru, su, bd, ku, kd), and the in-event
#: emission rank.
RU, SU, BD, KU, KD = range(5)
_RANK = {SU: 0, BD: 1, RU: 2, KU: 3, KD: 4}


def _node_csr(lists: Sequence[Sequence[int]]) -> Tuple[np.ndarray, ...]:
    """Dense per-node CSR from per-node neighbor lists (order preserved)."""
    counts = np.fromiter((len(x) for x in lists), dtype=np.int64,
                         count=len(lists))
    flat = np.fromiter(
        (c for x in lists for c in x), dtype=np.int64, count=int(counts.sum())
    )
    starts = np.zeros(len(lists), dtype=np.int64)
    if len(lists) > 1:
        starts[1:] = np.cumsum(counts)[:-1]
    return starts, counts, flat


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
        n = net.n
        P = max(1, partition.num_parts)
        self.net = net
        self.partition = partition
        self.division = division
        self.n = n
        self.P = P
        self.part_of = np.asarray(partition.part_of, dtype=np.int64)
        self.rep_of = np.asarray(division.rep_of, dtype=np.int64)
        self.fparent = np.asarray(division.forest.parent, dtype=np.int64)
        self.tparent = np.asarray(shortcut.tree.parent, dtype=np.int64)
        self._fch = _node_csr(division.forest.children)
        self._bd = division.wave_boundary_csr

        self._dkeys, self._dstarts, self._dcounts, self._dchildren = (
            shortcut.down_csr()
        )
        self._up_keys = shortcut.up_key_array()

        entries = getattr(annotations, "priority_entries", None)
        if entries is not None:
            pk, pv = entries()
        else:
            rd = annotations.root_depth
            pk = np.fromiter(
                (v * P + pid for (v, pid) in rd), dtype=np.int64, count=len(rd)
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
        if self.num_parts:
            pid_bits = int_bits_array(np.arange(self.num_parts, dtype=np.int64))
            self.pbits = 2 + 8 + pid_bits + int_bits_array(self.token)
        else:
            self.pbits = _EMPTY

        self.has_token = np.zeros(n, dtype=bool)
        self.sent_su = np.zeros(n, dtype=bool)
        self.sent_bd = np.zeros(n, dtype=bool)
        self.sent_ru = np.zeros(n, dtype=bool)
        self.injected = np.zeros(n, dtype=bool)
        self.started = np.zeros(max(1, self.num_parts), dtype=bool)
        self._kup = KeySet()
        self._kdown = KeySet()
        self._pool = EdgePool(n, ("tag", "pid"), capacity=capacity)
        self.in_arena = ColumnArena(("key", "src", "tag"))
        self.out_arena = ColumnArena(("key", "dst", "tag"))
        #: (global chrono, key) per executed leader start, chronological.
        self.leader_events: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def array_start(self, actx) -> None:
        timed = self.delay > 1
        for tick in np.unique(self.delay[timed]).tolist():
            actx.wake_at(self.leaders[timed & (self.delay == tick)], tick)
        actx.wake(self.leaders[~timed])

    def array_tick(self, actx, d) -> None:
        n = self.n
        P = self.P
        base = len(self.in_arena)
        m = len(d)
        if m:
            tag = d.cols["tag"]
            pid = d.cols["pid"]
            key = d.dst * np.int64(P) + pid
            self.in_arena.append(key=key, src=d.src, tag=tag)
        else:
            tag = pid = key = _EMPTY

        # Emission requests: parallel lists of row arrays, assembled and
        # position-sorted once at the end of the tick.
        em: List[Tuple[np.ndarray, ...]] = []

        def emit_single(src, dst, pos, tagc, pids, p0, p1):
            if src.size:
                zero = np.zeros(src.size, dtype=np.int64)
                rank = np.full(src.size, _RANK[tagc], dtype=np.int64)
                tcol = np.full(src.size, tagc, dtype=np.int64)
                em.append((src, dst, pos, rank, zero, tcol, pids, p0, p1))

        # -- leader starts (on_activate runs before the inbox) ----------
        pend = np.flatnonzero(~self.started[: self.num_parts])
        su_req: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        bd_req: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        inj_nodes: List[np.ndarray] = []
        inj_pids: List[np.ndarray] = []
        inj_pos: List[np.ndarray] = []
        if pend.size:
            lead = self.leaders[pend]
            act = in_sorted(d.active, lead)
            pend = pend[act]
            lead = lead[act]
        if pend.size:
            early = actx.tick < self.delay[pend]
            if early.any():
                actx.wake(lead[early])
            s_pids = pend[~early]
            s_nodes = lead[~early]
            if s_pids.size:
                self.started[s_pids] = True
                lpos = 2 * np.searchsorted(d.dst, s_nodes)
                for node, p, lp in zip(
                    s_nodes.tolist(), s_pids.tolist(), lpos.tolist()
                ):
                    self.leader_events.append((2 * base + lp, node * P + p))
                self.has_token[s_nodes] = True
                is_rep = self.rep_of[s_nodes] == s_nodes
                nr = ~is_rep
                if nr.any():
                    # A non-rep leader sends ru unconditionally (no flag
                    # check in the scalar _leader_start) and sets the flag.
                    self.sent_ru[s_nodes[nr]] = True
                    emit_single(
                        s_nodes[nr], self.fparent[s_nodes[nr]], lpos[nr],
                        RU, s_pids[nr], 0, 0,
                    )
                if is_rep.any():
                    rn = s_nodes[is_rep]
                    rp = s_pids[is_rep]
                    rpos = lpos[is_rep]
                    su_req.append((rn, rp, rpos))
                    bd_req.append((rn, rp, rpos))
                    fresh_inj = ~self.injected[rn]
                    self.injected[rn[fresh_inj]] = True
                    # via_block is False at a leader start: inject.
                    inj_nodes.append(rn[fresh_inj])
                    inj_pids.append(rp[fresh_inj])
                    inj_pos.append(rpos[fresh_inj])

        # -- arrival classification and the token grant ----------------
        kd_req_nodes: List[np.ndarray] = []
        kd_req_pids: List[np.ndarray] = []
        kd_req_pos: List[np.ndarray] = []
        if m:
            apos = 2 * np.arange(m, dtype=np.int64) + 1
            part_ok = self.part_of[d.dst] == pid
            is_ru = tag == RU
            is_su = tag == SU
            is_bd = tag == BD
            is_ku = tag == KU
            is_kd = tag == KD

            fresh_ku = np.zeros(m, dtype=bool)
            ku_rows = np.flatnonzero(is_ku)
            if ku_rows.size:
                kk = key[ku_rows]
                f = first_occurrence_mask(kk) & ~self._kup.contains(kk)
                fresh_ku[ku_rows[f]] = True

            # Token grant: the first grant-capable arrival per node wins.
            # A fresh ku that will lose its kup claim to an inject this
            # tick is never reachable here: the inject's trigger already
            # set has_token at an earlier position.
            cand = is_ru | is_su | is_bd | ((is_kd | fresh_ku) & part_ok)
            cand &= ~self.has_token[d.dst]
            ci = np.flatnonzero(cand)
            w = ci[first_occurrence_mask(d.dst[ci])]
            wn = d.dst[w]
            wp = pid[w]
            wt = tag[w]
            wpos = apos[w]
            self.has_token[wn] = True

            wrep = self.rep_of[wn] == wn
            ra = wrep & (wt != SU)
            if ra.any():
                su_req.append((wn[ra], wp[ra], wpos[ra]))
                bd_req.append((wn[ra], wp[ra], wpos[ra]))
                inj = ra & ~self.injected[wn]
                self.injected[wn[inj]] = True
                ireq = inj & ((wt == RU) | (wt == BD))
                inj_nodes.append(wn[ireq])
                inj_pids.append(wp[ireq])
                inj_pos.append(wpos[ireq])
            # Non-rep winners of ru/bd/ku/kd route the token up (gated).
            rr = ~wrep & (wt != SU)

            # su arrivals always forward su+bd, gated on the flags.
            si = np.flatnonzero(is_su)
            if si.size:
                su_req.append((d.dst[si], pid[si], apos[si]))
                bd_req.append((d.dst[si], pid[si], apos[si]))
        else:
            w = wn = wp = wt = wpos = _EMPTY
            rr = np.zeros(0, dtype=bool)
            fresh_ku = np.zeros(0, dtype=bool)
            apos = _EMPTY

        # -- sent_su / sent_bd resolution -------------------------------
        for reqs, flag, tagc, csr in (
            (su_req, self.sent_su, SU, self._fch),
            (bd_req, self.sent_bd, BD, self._bd),
        ):
            if not reqs:
                continue
            rn = np.concatenate([r[0] for r in reqs])
            rp = np.concatenate([r[1] for r in reqs])
            rpos = np.concatenate([r[2] for r in reqs])
            keep = ~flag[rn]
            rn, rp, rpos = rn[keep], rp[keep], rpos[keep]
            if rn.size == 0:
                continue
            order = np.lexsort((rpos, rn))
            first = order[first_occurrence_mask(rn[order])]
            rn, rp, rpos = rn[first], rp[first], rpos[first]
            flag[rn] = True
            starts, counts, flat = csr
            origin, member, within = csr_expand(starts, counts, flat, rn)
            if member.size:
                rank = np.full(member.size, _RANK[tagc], dtype=np.int64)
                tcol = np.full(member.size, tagc, dtype=np.int64)
                em.append((
                    rn[origin], member, rpos[origin], rank, within, tcol,
                    rp[origin], np.zeros(member.size, dtype=np.int64),
                    np.zeros(member.size, dtype=np.int64),
                ))

        # -- gated ru from non-rep token winners ------------------------
        if rr.size and rr.any():
            rn = wn[rr]
            keep = ~self.sent_ru[rn]
            rn = rn[keep]
            if rn.size:
                self.sent_ru[rn] = True
                emit_single(
                    rn, self.fparent[rn], wpos[rr][keep], RU, wp[rr][keep],
                    0, 0,
                )

        # -- kup resolution: fresh ku arrivals vs injects ---------------
        cparts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
        fki = np.flatnonzero(fresh_ku)
        if fki.size:
            cparts.append((d.dst[fki], pid[fki], apos[fki], 0))
        if inj_nodes:
            inode = np.concatenate(inj_nodes)
            ipid = np.concatenate(inj_pids)
            ipos = np.concatenate(inj_pos)
            ikey = inode * np.int64(P) + ipid
            iup = in_sorted(self._up_keys, ikey)
            idone = self._kup.contains(ikey)
            # pid not in up_parts, or already claimed: block_down instead.
            side = ~iup | (iup & idone)
            kd_req_nodes.append(inode[side])
            kd_req_pids.append(ipid[side])
            kd_req_pos.append(ipos[side])
            live = iup & ~idone
            cparts.append((inode[live], ipid[live], ipos[live], 1))
        if cparts:
            cn = np.concatenate([c[0] for c in cparts])
            cp = np.concatenate([c[1] for c in cparts])
            cpos = np.concatenate([c[2] for c in cparts])
            cinj = np.concatenate([
                np.full(c[0].size, c[3], dtype=np.int64) for c in cparts
            ])
            ckey = cn * np.int64(P) + cp
            order = np.lexsort((cpos, ckey))
            first = order[first_occurrence_mask(ckey[order])]
            win = np.zeros(cn.size, dtype=bool)
            win[first] = True
            self._kup.add(ckey[win])
            # Losing injects fall through to block_down; losing ku
            # arrivals are skipped entirely (the whole handler branch is
            # guarded by the kup_done test).
            lose_inj = ~win & (cinj == 1)
            kd_req_nodes.append(cn[lose_inj])
            kd_req_pids.append(cp[lose_inj])
            kd_req_pos.append(cpos[lose_inj])
            # Winners: climb if the part still goes up, else turn around.
            wk = np.flatnonzero(win)
            up = in_sorted(self._up_keys, ckey[wk])
            climb = wk[up]
            emit_single(
                cn[climb], self.tparent[cn[climb]], cpos[climb], KU,
                cp[climb], self._prio.get(ckey[climb]), cp[climb],
            )
            root = wk[~up]
            kd_req_nodes.append(cn[root])
            kd_req_pids.append(cp[root])
            kd_req_pos.append(cpos[root])

        # -- kdown resolution ------------------------------------------
        if m:
            ki = np.flatnonzero(is_kd)
            if ki.size:
                kd_req_nodes.append(d.dst[ki])
                kd_req_pids.append(pid[ki])
                kd_req_pos.append(apos[ki])
        if kd_req_nodes:
            qn = np.concatenate(kd_req_nodes)
            qp = np.concatenate(kd_req_pids)
            qpos = np.concatenate(kd_req_pos)
            qkey = qn * np.int64(P) + qp
            keep = ~self._kdown.contains(qkey)
            qn, qp, qpos, qkey = qn[keep], qp[keep], qpos[keep], qkey[keep]
            if qn.size:
                order = np.lexsort((qpos, qkey))
                first = order[first_occurrence_mask(qkey[order])]
                qn, qp, qpos, qkey = (
                    qn[first], qp[first], qpos[first], qkey[first]
                )
                self._kdown.add(qkey)
                pos_tbl, has = find_sorted(self._dkeys, qkey)
                gi = np.flatnonzero(has)
                origin, child, within = csr_expand(
                    self._dstarts, self._dcounts, self._dchildren, pos_tbl[gi]
                )
                if child.size:
                    src = qn[gi][origin]
                    pp = qp[gi][origin]
                    rank = np.full(child.size, _RANK[KD], dtype=np.int64)
                    tcol = np.full(child.size, KD, dtype=np.int64)
                    em.append((
                        src, child, qpos[gi][origin], rank, within, tcol,
                        pp, self._prio.get(src * np.int64(P) + pp), pp,
                    ))

        # -- assemble, order, and flush --------------------------------
        if em:
            src = np.concatenate([e[0] for e in em])
            dst = np.concatenate([e[1] for e in em])
            pos = np.concatenate([e[2] for e in em])
            rank = np.concatenate([e[3] for e in em])
            idx = np.concatenate([e[4] for e in em])
            tcol = np.concatenate([e[5] for e in em])
            pcol = np.concatenate([e[6] for e in em])
            p0 = np.concatenate([
                np.broadcast_to(np.asarray(e[7], dtype=np.int64), e[0].shape)
                for e in em
            ])
            p1 = np.concatenate([
                np.broadcast_to(np.asarray(e[8], dtype=np.int64), e[0].shape)
                for e in em
            ])
            order = np.lexsort((idx, rank, src, pos))
            self._pool.push(
                src[order], dst[order], p0[order], p1[order],
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
                key=emitted["src"] * np.int64(P) + emitted["pid"],
                dst=emitted["dst"],
                tag=emitted["tag"],
            )
        actx.wake(wake)

    # ------------------------------------------------------------------
    # Record access (the reversal and replay read the arenas directly)
    # ------------------------------------------------------------------
    def parent_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The wave-parent dict as (keys in insertion order, values).

        A value of -1 encodes ``None`` (leader keys: the scalar leader
        start overwrites any earlier arrival's value in place, so the
        *position* is the first touch but the value is always ``None``).
        """
        ik = self.in_arena.column("key")
        isrc = self.in_arena.column("src")
        ukeys, idx = np.unique(ik, return_index=True)
        chrono = 2 * idx.astype(np.int64) + 1
        vals = isrc[idx].astype(np.int64)
        if self.leader_events:
            lc = np.fromiter(
                (c for c, _k in self.leader_events), dtype=np.int64,
                count=len(self.leader_events),
            )
            lk = np.fromiter(
                (k for _c, k in self.leader_events), dtype=np.int64,
                count=len(self.leader_events),
            )
            pos, hit = find_sorted(ukeys, lk)
            if hit.any():
                hidx = pos[hit]
                chrono[hidx] = np.minimum(chrono[hidx], lc[hit])
                vals[hidx] = -1
            miss = ~hit
            ukeys = np.concatenate([ukeys, lk[miss]])
            chrono = np.concatenate([chrono, lc[miss]])
            vals = np.concatenate([vals, np.full(int(miss.sum()), -1,
                                                 dtype=np.int64)])
        order = np.argsort(chrono, kind="stable")
        return ukeys[order], vals[order]


def _flush_values(actx, pool: EdgePool) -> None:
    """One tick of a ``("a" | "r", pid, value-or-None)`` packet pool."""
    emitted, wake = pool.select()
    if emitted is not None:
        bits = None
        if actx.strict_bits:
            vb = np.where(
                emitted["has"] == 1, int_bits_array(emitted["val"]), 1
            )
            bits = 2 + 8 + int_bits_array(emitted["pid"]) + vb
        actx.emit(
            emitted["src"],
            emitted["dst"],
            cols={
                "pid": emitted["pid"],
                "val": emitted["val"],
                "has": emitted["has"],
            },
            bits=bits,
        )
    actx.wake(wake)


class ReverseArrayKernel(ArrayProgram):
    """Array twin of :class:`~repro.core.wave.ReverseProgram`."""

    name = "pa_reverse"

    def __init__(
        self,
        wave: WaveArrayKernel,
        agg: Aggregation,
        values: Sequence[object],
        capacity: int = 1,
    ) -> None:
        self.wave = wave
        n = wave.n
        P = wave.P
        self.P = P
        op, values = fold_op(agg, values)
        self._op, identity = FOLDS[op]

        all_out = wave.out_arena.column("key")
        all_in = wave.in_arena.column("key")
        pkeys, pvals = wave.parent_entries()

        # Canonical iteration order: sorted packed keys v * P + pid, which
        # is sorted (v, pid) — the order the scalar ReverseProgram iterates
        # (restriction-stable; see the module docstring).
        key_parts = [a for a in (all_out, all_in, pkeys) if a.size]
        if key_parts:
            key64 = np.unique(np.concatenate(key_parts))
        else:
            key64 = _EMPTY
        self.num_keys = key64.size
        self.kv = key64 // P
        self.kp = key64 % P
        self._sorted_keys = key64

        # parent value per iter key (-1 = None / absent).
        self.par_val = np.full(self.num_keys, -1, dtype=np.int64)
        if pkeys.size:
            self.par_val[self._kid(pkeys)] = pvals

        # expected = number of recorded out-edges per key.
        self.expected = np.zeros(self.num_keys, dtype=np.int64)
        if all_out.size:
            np.add.at(self.expected, self._kid(all_out), 1)

        # acc as (value, has); the op identity stands in for None.
        self.acc_has = (wave.part_of[self.kv] == self.kp) & wave.has_token[self.kv]
        if values.present is not None:
            self.acc_has &= values.present[self.kv]
        self.acc_val = np.full(self.num_keys, identity, dtype=np.int64)
        self.acc_val[self.acc_has] = values.cols[0][self.kv[self.acc_has]]

        self._pool = EdgePool(n, ("pid", "val", "has"), capacity=capacity)
        #: Part aggregates, in the scalar dict's chronological order.
        self.results: Dict[int, Optional[int]] = {}

    def _kid(self, keys: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._sorted_keys, keys)

    def _fire(self, kids: np.ndarray) -> None:
        pv = self.par_val[kids]
        root = pv < 0
        for kid in kids[root].tolist():
            self.results[int(self.kp[kid])] = (
                int(self.acc_val[kid]) if self.acc_has[kid] else None
            )
        up = kids[~root]
        if up.size:
            has = self.acc_has[up]
            self._pool.push(
                self.kv[up], pv[~root], 0, 0,
                pid=self.kp[up],
                val=np.where(has, self.acc_val[up], 0),
                has=has.astype(np.int64),
            )

    def array_start(self, actx) -> None:
        # None answers for every non-parent recorded in-edge, in keys-set
        # iteration order, preserving per-key arrival order.
        ik = self.wave.in_arena.column("key")
        isrc = self.wave.in_arena.column("src")
        if ik.size:
            kid = self._kid(ik)
            order = np.argsort(kid, kind="stable")
            kid_s = kid[order]
            src_s = isrc[order]
            par_s = self.par_val[kid_s]
            match = src_s == par_s
            csum = np.cumsum(match.astype(np.int64))
            starts = np.ones(kid_s.size, dtype=bool)
            starts[1:] = kid_s[1:] != kid_s[:-1]
            start_idx = np.flatnonzero(starts)
            counts = np.diff(np.append(start_idx, kid_s.size))
            bases = csum[start_idx] - match[start_idx]
            within = csum - np.repeat(bases, counts)
            keep = ~(match & (within == 1))
            kk = kid_s[keep]
            self._pool.push(
                self.kv[kk], src_s[keep], 0, 0,
                pid=self.kp[kk],
                val=0,
                has=0,
            )
        fires = np.flatnonzero(self.expected == 0)
        self._fire(fires)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        m = len(d)
        if m:
            key = d.dst * np.int64(self.P) + d.cols["pid"]
            kid = self._kid(key)
            has = d.cols["has"].astype(bool)
            hv = np.flatnonzero(has)
            if hv.size:
                self._op.at(self.acc_val, kid[hv], d.cols["val"][hv])
                self.acc_has[kid[hv]] = True
            np.add.at(self.expected, kid, -1)
            rev = kid[::-1]
            u, ridx = np.unique(rev, return_index=True)
            last = m - 1 - ridx
            zero = self.expected[u] == 0
            fk = u[zero]
            if fk.size:
                order = np.argsort(last[zero])
                self._fire(fk[order])
        _flush_values(actx, self._pool)


class ReplayArrayKernel(ArrayProgram):
    """Array twin of :class:`~repro.core.wave.ReplayProgram`."""

    name = "pa_replay"

    def __init__(
        self,
        wave: WaveArrayKernel,
        results: Dict[int, Optional[int]],
        capacity: int = 1,
    ) -> None:
        self.wave = wave
        n = wave.n
        self.P = wave.P
        ok = wave.out_arena.column("key")
        od = wave.out_arena.column("dst")
        order = np.argsort(ok, kind="stable")
        sk = ok[order]
        self._okeys, starts = np.unique(sk, return_index=True)
        self._ostarts = starts
        self._ocounts = np.diff(np.append(starts, sk.size))
        self._oflat = od[order]
        self._done = KeySet()
        self.del_seen = np.zeros(n, dtype=bool)
        self.del_has = np.zeros(n, dtype=bool)
        self.del_val = np.zeros(n, dtype=np.int64)
        self.res_pids = np.fromiter(results, dtype=np.int64, count=len(results))
        self.res_has = np.array(
            [v is not None for v in results.values()], dtype=np.int64
        )
        self.res_val = np.array(
            [v or 0 for v in results.values()], dtype=np.int64
        )
        self._pool = EdgePool(n, ("pid", "val", "has"), capacity=capacity)

    def _forward(
        self,
        nodes: np.ndarray,
        pids: np.ndarray,
        vals: np.ndarray,
        has: np.ndarray,
    ) -> None:
        keys = nodes * np.int64(self.P) + pids
        fresh = first_occurrence_mask(keys) & ~self._done.contains(keys)
        self._done.add(keys)
        fi = np.flatnonzero(fresh)
        if fi.size == 0:
            return
        nodes, pids, vals, has, keys = (
            nodes[fi], pids[fi], vals[fi], has[fi], keys[fi]
        )
        member = self.wave.part_of[nodes] == pids
        self.del_seen[nodes[member]] = True
        self.del_has[nodes[member]] = has[member] != 0
        self.del_val[nodes[member]] = vals[member]
        pos, hit = find_sorted(self._okeys, keys)
        gi = np.flatnonzero(hit)
        if gi.size == 0:
            return
        origin, dsts, _within = csr_expand(
            self._ostarts, self._ocounts, self._oflat, pos[gi]
        )
        self._pool.push(
            nodes[gi][origin], dsts, 0, 0,
            pid=pids[gi][origin],
            val=vals[gi][origin],
            has=has[gi][origin],
        )

    def value_at_node(self) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * self.wave.n
        for v in np.flatnonzero(self.del_seen & self.del_has).tolist():
            out[v] = int(self.del_val[v])
        return out

    def array_start(self, actx) -> None:
        if self.res_pids.size:
            self._forward(
                self.wave.leaders[self.res_pids],
                self.res_pids,
                self.res_val,
                self.res_has,
            )
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            self._forward(d.dst, d.cols["pid"], d.cols["val"], d.cols["has"])
        _flush_values(actx, self._pool)


#: The (broadcast, reversal, replay) kernels, in the order a solve runs them.
WAVE_KERNELS = (WaveArrayKernel, ReverseArrayKernel, ReplayArrayKernel)


def array_wave_supported(
    engine, values: Sequence[object], agg: Aggregation,
    leader_tokens: Dict[int, object], phase: str = "pa_wave",
) -> bool:
    """Whether the array wave path applies (else: scalar programs).

    Requires the array engine, an aggregation a ufunc folds over one bare
    int (or None) column with int64-safe magnitudes, and int leader
    tokens — the representable subset of the wave's payload space.
    Everything else (tuple-packed batches, MST composite keys, custom
    merges) falls back to the scalar programs, which run unchanged under
    the array engine; the trace notes that as a ``kernel_fallback`` of
    ``phase``.
    """
    def check() -> bool:
        _op, columns = fold_op(agg, values)
        if not columns.bare or columns.is_bool[0]:
            raise KernelDecline("non_int")
        int_column(list(leader_tokens.values()))
        return True

    return _kernel(engine, phase, check) is not None
