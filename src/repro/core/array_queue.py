"""Array-native per-edge queues and the queued kernels built on them.

:class:`EdgePool` is the vectorized twin of
:class:`~repro.core.queued.QueuedProgram`'s per-edge heaps: a tick's
enqueues are staged as flat int64 columns, and one :meth:`EdgePool.select`
pass per tick picks, for every directed edge, the ``capacity`` packets of
least ``(priority, seq)`` — the Lemma 4.2 discipline — as whole-array
sorts.  Parity with the scalar flush is exact because both reduce to one
rule: per tick, per source, edges drain in ascending *birth* order (the
seq of the packet that created the edge's backlog entry), and within an
edge packets drain in ``(priority, seq)`` order.  The scalar heaps' dict
iteration *is* birth order, because ``dict`` preserves insertion and a
drained destination's key is deleted (so a later re-add gets a fresh,
larger birth).  The pool tracks births explicitly: the minimum
*remaining* seq of an edge can reorder arbitrarily relative to insertion
once older packets drain.  It also has a path of its own for the
steady state, taken when a tick has no backlog and no duplicate edge:
then every edge holds one packet, births coincide with seqs, and the
rows stably sorted by source are the wire order, nothing else.  Either
way only the order of a *source's own* packets matters — no rule
compares seqs across sources — so a kernel may push a tick's rows source
by source.

On top of the pool live the array kernels for the queued programs of the
shortcut pipeline — CoreFast claiming (:class:`ClaimArrayKernel`) and
block annotation (:class:`AnnotateArrayKernel`); the PA wave kernels share
the pool from :mod:`repro.core.array_wave`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..congest.arrays import ColumnArena, int_bits_array, tuple_bits
from ..congest.engine import ArrayProgram
from ..congest.message import TAG_BITS
from .blocks import BlockAnnotations

_EMPTY = np.empty(0, dtype=np.int64)


def _run_heads(grouped: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal values in ``grouped``."""
    heads = np.ones(grouped.size, dtype=bool)
    if grouped.size > 1:
        np.not_equal(grouped[1:], grouped[:-1], out=heads[1:])
    return heads


def first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the first row of each distinct key value."""
    if keys.size < 2 or (keys[1:] >= keys[:-1]).all():
        return _run_heads(keys)  # already grouped
    order = np.argsort(keys, kind="stable")
    heads = _run_heads(keys[order])
    if heads.all():
        return heads
    mask = np.zeros(keys.size, dtype=bool)
    mask[order[heads]] = True
    return mask


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` as one sort and a
    run-boundary mask (an order of magnitude under its hash table on the
    few-thousand-row columns the kernels dedup every tick)."""
    ordered = np.sort(values)
    return ordered[_run_heads(ordered)]


def find_sorted(
    table: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where each of ``values`` sits in the sorted ``table``, and whether.

    Returns ``(pos, hit)``: ``table[pos[hit]] == values[hit]``; a miss's
    position is clamped into range, so ``pos`` is always safe to index.
    """
    if table.size == 0:
        return (
            np.zeros(values.size, dtype=np.int64),
            np.zeros(values.size, dtype=bool),
        )
    pos = np.searchsorted(table, values)
    pos[pos >= table.size] = table.size - 1
    return pos, table[pos] == values


def in_sorted(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in the sorted array ``table``."""
    return find_sorted(table, values)[1]


def group_ranks(sorted_keys: np.ndarray) -> np.ndarray:
    """Rank of each row within its run of equal keys (keys pre-sorted)."""
    m = sorted_keys.size
    if m == 0:
        return _EMPTY
    start_idx = np.flatnonzero(_run_heads(sorted_keys))
    counts = np.diff(np.append(start_idx, m))
    return np.arange(m, dtype=np.int64) - np.repeat(start_idx, counts)


class KeySet:
    """A set of int64 keys as a sorted array (vectorized dedup tables)."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys = _EMPTY

    def __len__(self) -> int:
        return self._keys.size

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return in_sorted(self._keys, keys)

    def add(self, keys: np.ndarray) -> None:
        # Merge-by-insertion instead of np.union1d: the set only grows,
        # so re-hashing the whole table per add would cost O(ticks * |set|).
        if not keys.size:
            return
        fresh = np.sort(keys)
        if fresh.size > 1:
            keep = np.ones(fresh.size, dtype=bool)
            keep[1:] = fresh[1:] != fresh[:-1]
            fresh = fresh[keep]
        if self._keys.size:
            fresh = fresh[~in_sorted(self._keys, fresh)]
            if not fresh.size:
                return
            pos = np.searchsorted(self._keys, fresh)
            self._keys = np.insert(self._keys, pos, fresh)
        else:
            self._keys = fresh


class EdgePool:
    """Per-directed-edge priority queues over flat columns.

    Packets are pushed in the scalar program's enqueue order, at least
    source by source (the pool's running ``seq`` counter mirrors
    ``QueuedProgram._seq``, whose values are only ever compared between
    packets of one source); ``select`` then performs one tick's flush
    for every backlogged source the tick activated at once — a scalar
    node with backlog re-wakes itself, so that is every one of them
    unless a fault plan dropped the wake.  Priorities are two int64
    columns ``(p0, p1)`` compared lexicographically; 1-tuple scalar
    priorities map to ``p1 = 0``.
    """

    def __init__(
        self, n: int, payload_names: Sequence[str], capacity: int = 1
    ) -> None:
        self.n = n
        self.capacity = capacity
        self._names = ("src", "dst", "p0", "p1", "seq") + tuple(payload_names)
        self._staged: List[Dict[str, np.ndarray]] = []
        self._pending: Optional[Dict[str, np.ndarray]] = None
        self._edge_keys = _EMPTY
        self._edge_birth = _EMPTY
        self._seq_next = 0
        #: Sources with packets that were pushed before they activated
        #: (the start's, and a backlog's): each flushes only once it has.
        self._waiting = _EMPTY

    def __len__(self) -> int:
        total = 0 if self._pending is None else self._pending["src"].size
        for part in self._staged:
            total += part["src"].size
        return total

    def push(self, src, dst, p0, p1, **payload) -> None:
        """Stage a batch of packets (each source's rows in enqueue order)."""
        values = {"src": src, "dst": dst, "p0": p0, "p1": p1}
        values.update(payload)
        arrays = {k: np.asarray(v, dtype=np.int64) for k, v in values.items()}
        count = max((a.size for a in arrays.values() if a.ndim), default=1)
        if count == 0:
            return
        row = {
            k: (a if a.ndim else np.full(count, a, dtype=np.int64))
            for k, a in arrays.items()
        }
        row["seq"] = np.arange(
            self._seq_next, self._seq_next + count, dtype=np.int64
        )
        self._seq_next += count
        self._staged.append(row)

    def pending_sources(self) -> np.ndarray:
        """Distinct sources with queued packets (the nodes to wake)."""
        parts = [] if self._pending is None else [self._pending["src"]]
        parts.extend(part["src"] for part in self._staged)
        if not parts:
            return _EMPTY
        self._waiting = sorted_unique(np.concatenate(parts))
        return self._waiting

    def select(
        self, active: np.ndarray
    ) -> Tuple[Optional[Dict[str, np.ndarray]], np.ndarray]:
        """One tick's flush: (emitted columns in wire order, re-wake set).

        ``active`` is the tick's sorted activation set.  A source whose
        wake did not activate it (a fault plan dropped it) keeps its
        packets and is not re-woken: like a scalar node, it flushes when
        it next activates.
        """
        asleep, self._waiting = self._waiting, _EMPTY
        if asleep.size:
            asleep = asleep[~in_sorted(active, asleep)]
        backlog = self._pending
        parts = self._staged
        if backlog is not None:
            parts = [backlog] + parts
        if not parts:
            return None, _EMPTY
        self._staged = []
        if len(parts) == 1:
            rows = parts[0]
        else:
            rows = {
                name: np.concatenate([part[name] for part in parts])
                for name in self._names
            }
        src = rows["src"]
        dst = rows["dst"]
        seq = rows["seq"]
        key = src * np.int64(self.n) + dst

        if backlog is None and not asleep.size:
            # The no-backlog path: with one packet per edge, every packet
            # heads its own queue, birth == seq, and the wire order is
            # (src, seq) — the rows, which are seq-ascending, stably
            # sorted by source.
            edges = np.sort(key)
            if not (edges[1:] == edges[:-1]).any():
                if (src[1:] < src[:-1]).any():
                    order = np.argsort(src, kind="stable")
                    rows = {name: col[order] for name, col in rows.items()}
                return rows, _EMPTY
        self._pending = None

        # Register births for edges backlogged for the first time.  New
        # keys can only come from this tick's staged rows, which are
        # seq-ascending, so a key's first row is the creating packet.
        fresh = np.flatnonzero(~in_sorted(self._edge_keys, key))
        if fresh.size:
            born = fresh[first_occurrence_mask(key[fresh])]
            keys2 = np.concatenate([self._edge_keys, key[born]])
            birth2 = np.concatenate([self._edge_birth, seq[born]])
            order = np.argsort(keys2)
            self._edge_keys = keys2[order]
            self._edge_birth = birth2[order]
        birth = self._edge_birth[np.searchsorted(self._edge_keys, key)]

        # Per-edge selection: the capacity least-(p0, p1, seq) packets.
        order = np.lexsort((seq, rows["p1"], rows["p0"], key))
        rank = group_ranks(key[order])
        send = np.zeros(key.size, dtype=bool)
        send[order[rank < self.capacity]] = True
        if asleep.size:
            send &= ~in_sorted(asleep, src)

        sel = {name: col[send] for name, col in rows.items()}
        emit_order = np.lexsort(
            (sel["seq"], sel["p1"], sel["p0"], birth[send], sel["src"])
        )
        emitted = {name: col[emit_order] for name, col in sel.items()}

        keep = ~send
        if keep.any():
            self._pending = {name: col[keep] for name, col in rows.items()}
            remaining_keys = sorted_unique(key[keep])
            self._waiting = wake = sorted_unique(self._pending["src"])
            if asleep.size:
                wake = wake[~in_sorted(asleep, wake)]
        else:
            remaining_keys = wake = _EMPTY
        self._edge_birth = self._edge_birth[
            np.searchsorted(self._edge_keys, remaining_keys)
        ] if remaining_keys.size else _EMPTY
        self._edge_keys = remaining_keys
        return emitted, wake


def csr_slots(
    starts: np.ndarray, counts: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fan group ``idx`` out to the flat slots of its members.

    Returns ``(origin, slots, within)``: ``origin[j]`` is the position in
    ``idx`` whose group owns flat slot ``slots[j]``, ``within[j]`` the
    slot's rank inside the group; groups appear in ``idx`` order, slots
    ascending — the scalar nested-loop order.
    """
    cc = counts[idx]
    total = int(cc.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    origin = np.repeat(np.arange(idx.size, dtype=np.int64), cc)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cc) - cc, cc
    )
    return origin, np.repeat(starts[idx], cc) + within, within


def csr_expand(
    starts: np.ndarray, counts: np.ndarray, flat: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`csr_slots` with the slots read out: ``(origin, members, within)``."""
    origin, slots, within = csr_slots(starts, counts, idx)
    return origin, flat[slots], within


class ClaimArrayKernel(ArrayProgram):
    """CoreFast claiming (Algorithm 4's claim step).

    Its reference is the CoreFast claim twin in ``tests/twins.py``.
    Representatives climb the BFS tree claiming parent edges; each node
    admits at most ``theta`` distinct parts.  The in-order saturation rule
    vectorizes exactly: within a tick the i-th fresh eligible claim at a
    node succeeds iff ``admitted_before + i < theta``.
    """

    name = "corefast_claim"

    def __init__(
        self,
        tree,
        claimants: Sequence[Tuple[int, int]],
        theta: int,
        priority_of: Dict[int, int],
    ) -> None:
        self.tree = tree
        self.n = tree.net.n
        #: Key stride: one more than the largest part id that can climb.
        self.P = 1 + max((pid for _node, pid in claimants), default=0)
        self.theta = theta
        self.claimants = claimants
        self.parent = np.asarray(tree.parent, dtype=np.int64)
        prio = np.arange(self.P, dtype=np.int64)
        for pid, pr in priority_of.items():
            if 0 <= pid < self.P:
                prio[pid] = pr
        self.prio = prio
        self._handled = KeySet()
        self._count = np.zeros(self.n, dtype=np.int64)
        self._claims = ColumnArena(("node", "pid"))
        self._pool = EdgePool(self.n, ("pid",), capacity=1)
        self._claimed_up: Optional[List[Set[int]]] = None

    def _try_claim(self, nodes: np.ndarray, pids: np.ndarray) -> None:
        keys = nodes * np.int64(self.P) + pids
        fresh = first_occurrence_mask(keys) & ~self._handled.contains(keys)
        self._handled.add(keys)
        idx = np.flatnonzero(fresh & (self.parent[nodes] >= 0))
        if idx.size == 0:
            return
        sub = nodes[idx]
        order = np.argsort(sub, kind="stable")
        rank = np.empty(idx.size, dtype=np.int64)
        rank[order] = group_ranks(sub[order])
        adm = idx[rank < (self.theta - self._count[sub])]
        if adm.size == 0:
            return
        v = nodes[adm]
        p = pids[adm]
        np.add.at(self._count, v, 1)
        self._claims.append(node=v, pid=p)
        self._claimed_up = None
        self._pool.push(v, self.parent[v], self.prio[p], 0, pid=p)

    @property
    def claimed_up(self) -> List[Set[int]]:
        if self._claimed_up is None:
            out: List[Set[int]] = [set() for _ in range(self.n)]
            nodes = self._claims.column("node").tolist()
            pids = self._claims.column("pid").tolist()
            for v, pid in zip(nodes, pids):
                out[v].add(pid)
            self._claimed_up = out
        return self._claimed_up

    def array_start(self, actx) -> None:
        if self.claimants:
            nodes = np.fromiter(
                (c[0] for c in self.claimants),
                dtype=np.int64,
                count=len(self.claimants),
            )
            pids = np.fromiter(
                (c[1] for c in self.claimants),
                dtype=np.int64,
                count=len(self.claimants),
            )
            self._try_claim(nodes, pids)
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            self._try_claim(d.dst, d.cols["pid"])
        emitted, wake = self._pool.select(d.active)
        if emitted is not None:
            bits = None
            if actx.strict:
                bits = tuple_bits(TAG_BITS, int_bits_array(emitted["pid"]))
            actx.emit(
                emitted["src"],
                emitted["dst"],
                cols={"pid": emitted["pid"]},
                bits=bits,
            )
        actx.wake(wake)


class AnnotateArrayKernel(ArrayProgram):
    """Block annotation (:mod:`repro.core.blocks`).

    Its reference is the block-annotation twin in ``tests/twins.py``.
    Floods ``(root_depth, root_uid)`` down every block over the shortcut's
    down-edges (a static CSR keyed by ``node * P + pid``) and routes one
    counting token per block along the minimum-child chain.  Its
    :class:`~repro.core.blocks.BlockAnnotations` wraps the arena columns
    the run filled, in the order of the ticks that learned them.
    """

    name = "annotate_blocks"

    def __init__(self, shortcut, capacity: int = 1) -> None:
        self.shortcut = shortcut
        self.tree = shortcut.tree
        self.net = shortcut.tree.net
        self.n = self.net.n
        self.P = max(1, shortcut.partition.num_parts)
        self._keys, self._starts, self._counts, self._children = (
            shortcut.down_csr()
        )
        self._seen = KeySet()
        self._ann = ColumnArena(("node", "pid", "depth"))
        self._tokens = ColumnArena(("node", "pid"))
        self._pool = EdgePool(
            self.n, ("pid", "depth", "uid", "cnt"), capacity=capacity
        )

    def _emit(
        self,
        nodes: np.ndarray,
        pids: np.ndarray,
        depths: np.ndarray,
        uids: np.ndarray,
        counting: np.ndarray,
    ) -> None:
        keys = nodes * np.int64(self.P) + pids
        fresh = first_occurrence_mask(keys) & ~self._seen.contains(keys)
        self._seen.add(keys)
        idx = np.flatnonzero(fresh)
        if idx.size == 0:
            return
        keys = keys[idx]
        nodes = nodes[idx]
        pids = pids[idx]
        depths = depths[idx]
        uids = uids[idx]
        counting = counting[idx]
        self._ann.append(node=nodes, pid=pids, depth=depths)

        pos, has = find_sorted(self._keys, keys)
        terminal = np.flatnonzero(counting.astype(bool) & ~has)
        if terminal.size:
            self._tokens.append(node=nodes[terminal], pid=pids[terminal])

        group = np.flatnonzero(has)
        if group.size == 0:
            return
        origin, child, _within = csr_expand(
            self._starts, self._counts, self._children, pos[group]
        )
        src = nodes[group][origin]
        pid = pids[group][origin]
        depth = depths[group][origin]
        uid = uids[group][origin]
        first_child = self._children[self._starts[pos[group]]][origin]
        cnt = (counting[group][origin].astype(bool) & (child == first_child))
        self._pool.push(
            src, child, depth, pid,
            pid=pid, depth=depth, uid=uid, cnt=cnt.astype(np.int64),
        )

    @property
    def out(self) -> BlockAnnotations:
        """The arena columns as annotations (read once the run is over)."""
        ann, tokens = self._ann, self._tokens
        return BlockAnnotations(
            ann.column("node"), ann.column("pid"), ann.column("depth"),
            tokens.column("node"), tokens.column("pid"),
        )

    def array_start(self, actx) -> None:
        # Block roots: (v, pid) with an H_pid child edge but no H_pid
        # parent edge.  ``_keys`` is unique-sorted ``v * P + pid``, which
        # is exactly the scalar program's (v ascending, pid ascending)
        # start order.
        if self._keys.size:
            root_keys = self._keys[
                ~in_sorted(self.shortcut.up_key_array(), self._keys)
            ]
            nodes = root_keys // self.P
            pids = root_keys % self.P
            self._emit(
                nodes,
                pids,
                np.asarray(self.tree.depth, dtype=np.int64)[nodes],
                np.asarray(self.net.uid, dtype=np.int64)[nodes],
                np.ones(nodes.size, dtype=np.int64),
            )
        actx.wake(self._pool.pending_sources())

    def array_tick(self, actx, d) -> None:
        if len(d):
            self._emit(
                d.dst,
                d.cols["pid"],
                d.cols["depth"],
                d.cols["uid"],
                d.cols["cnt"],
            )
        emitted, wake = self._pool.select(d.active)
        if emitted is not None:
            bits = None
            if actx.strict:
                bits = tuple_bits(
                    TAG_BITS,
                    int_bits_array(emitted["pid"]),
                    int_bits_array(emitted["depth"]),
                    int_bits_array(emitted["uid"]),
                    1,
                )
            actx.emit(
                emitted["src"],
                emitted["dst"],
                cols={
                    "pid": emitted["pid"],
                    "depth": emitted["depth"],
                    "uid": emitted["uid"],
                    "cnt": emitted["cnt"],
                },
                bits=bits,
            )
        actx.wake(wake)
