"""Property tests for the array engine's state layout.

Three families of invariants, per the contract in
:mod:`repro.congest.arrays`:

* **pack/unpack round-trips** — whatever goes into the flat columns
  (:class:`ColumnArena` batches, :class:`EdgePool` packets,
  :class:`KeySet` keys) comes back out exactly, in the order the scalar
  twin would have produced, under seeded random workloads;
* **dtype boundaries** — :func:`int_bits_array` agrees with the scalar
  :func:`~repro.congest.message.int_bits` at every payload width,
  including above the float64-exact range (2**53) and at the int64
  extremes;
* **masked slots** — an arena's dead region (beyond the live prefix) is
  invisible: poisoning it and reusing the arena across phases never
  leaks a poisoned value into a view.

The pool and the scalar ``QueuedProgram`` it mirrors are held to one
model of Lemma 4.2's per-edge heaps, on the same random schedules.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import Engine
from repro.congest.arrays import ColumnArena, int_bits_array, tuple_bits
from repro.congest.message import TUPLE_OVERHEAD_BITS, int_bits, payload_bits
from repro.core.array_queue import (
    EdgePool,
    KeySet,
    csr_expand,
    first_occurrence_mask,
    group_ranks,
    in_sorted,
)
from repro.core.queued import QueuedProgram
from oracles import complete_graph

I64 = np.iinfo(np.int64)


# ----------------------------------------------------------------------
# int_bits_array: exact at every width
# ----------------------------------------------------------------------
BOUNDARY_VALUES = [
    0, 1, -1, 2, -2, 255, 256, -(2**31), 2**31, 2**32 - 1, 2**32,
    2**52, 2**53 - 1, 2**53, 2**53 + 1, 2**60 - 1, 2**60, 2**62,
    I64.max - 1, I64.max, I64.min + 1, I64.min,
]


def test_int_bits_array_matches_scalar_at_every_boundary():
    arr = np.array(BOUNDARY_VALUES, dtype=np.int64)
    expected = [int_bits(int(v)) for v in BOUNDARY_VALUES]
    assert int_bits_array(arr).tolist() == expected


@given(st.lists(st.integers(I64.min, I64.max), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_int_bits_array_matches_scalar_on_random_int64(values):
    arr = np.array(values, dtype=np.int64)
    assert int_bits_array(arr).tolist() == [int_bits(v) for v in values]


def test_tuple_bits_matches_payload_bits_composition():
    pids = np.array([0, 5, -3, 2**40], dtype=np.int64)
    got = tuple_bits(7, int_bits_array(pids))
    expected = [TUPLE_OVERHEAD_BITS + 7 + int_bits(int(p)) for p in pids]
    assert got.tolist() == expected
    # Scalar components broadcast to a 0-d cost.
    assert int(tuple_bits(3, 4)) == TUPLE_OVERHEAD_BITS + 7
    # Cross-check against the scalar charger on a realistic shape.
    assert int(tuple_bits(payload_bits("claim"), int_bits_array(
        np.array([9], dtype=np.int64)))[0]) == payload_bits(("claim", 9))


# ----------------------------------------------------------------------
# ColumnArena: round-trips, growth, masked slots
# ----------------------------------------------------------------------
def _poison(arena: ColumnArena, value: int = -(10**17)) -> None:
    """Overwrite every dead slot of every column in place."""
    for name in arena.names:
        arena._cols[name][len(arena):] = value


@given(
    st.lists(
        st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=9),
        min_size=0, max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_column_arena_round_trips_batches_in_order(batches):
    arena = ColumnArena(("a", "b"), capacity=2)
    expect_a, expect_b = [], []
    for batch in batches:
        arena.append(
            a=np.array(batch, dtype=np.int64),
            b=np.array([v + 1 for v in batch], dtype=np.int64),
        )
        expect_a.extend(batch)
        expect_b.extend(v + 1 for v in batch)
    assert len(arena) == len(expect_a)
    assert arena.column("a").tolist() == expect_a
    assert arena.column("b").tolist() == expect_b
    rows = arena.rows()
    assert rows["a"].tolist() == expect_a and rows["b"].tolist() == expect_b


def test_column_arena_scalar_broadcast_and_schema_errors():
    arena = ColumnArena(("node", "pid"))
    arena.append(node=np.array([4, 7], dtype=np.int64), pid=3)
    assert arena.column("pid").tolist() == [3, 3]
    arena.append(node=5, pid=6)  # all-scalar: one row
    assert arena.column("node").tolist() == [4, 7, 5]
    with pytest.raises(ValueError):
        arena.append(node=1)  # missing a column
    with pytest.raises(ValueError):
        arena.append(node=1, pid=2, extra=3)
    with pytest.raises(ValueError):
        ColumnArena(())


def test_column_arena_masked_slots_survive_phase_reuse():
    # Phase 1 fills the arena; poisoned dead slots must stay invisible
    # through clear()/reuse — the cross-phase arena-reuse discipline.
    arena = ColumnArena(("x", "y"), capacity=4)
    arena.append(x=np.arange(3, dtype=np.int64), y=np.arange(3, dtype=np.int64))
    _poison(arena)
    assert arena.column("x").tolist() == [0, 1, 2]

    arena.clear()  # phase boundary: live count resets, storage retained
    assert len(arena) == 0 and arena.column("x").size == 0
    _poison(arena)
    arena.append(x=np.array([9], dtype=np.int64), y=np.array([8], dtype=np.int64))
    assert arena.column("x").tolist() == [9]
    assert arena.column("y").tolist() == [8]

    # Growth must copy only the live prefix, never the poison.
    _poison(arena)
    big = np.arange(50, dtype=np.int64)
    arena.append(x=big, y=big)
    assert arena.capacity >= 51
    assert arena.column("x").tolist() == [9] + big.tolist()

    # take() copies out the live rows and resets for the next phase.
    taken = arena.take()
    assert taken["y"].tolist() == [8] + big.tolist()
    assert len(arena) == 0


# ----------------------------------------------------------------------
# KeySet: model-based equivalence with a Python set
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.lists(st.integers(-100, 100), min_size=0, max_size=12),
        min_size=0, max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_keyset_matches_python_set_model(batches):
    ks = KeySet()
    model = set()
    probe = np.arange(-110, 111, dtype=np.int64)
    for batch in batches:
        # Unsorted, duplicate-laden input: add() must dedup and merge.
        ks.add(np.array(batch, dtype=np.int64))
        model.update(batch)
        assert len(ks) == len(model)
        got = probe[ks.contains(probe)].tolist()
        assert got == sorted(model)


def test_in_sorted_edges():
    table = np.array([2, 5, 9], dtype=np.int64)
    vals = np.array([1, 2, 3, 9, 10], dtype=np.int64)
    assert in_sorted(table, vals).tolist() == [False, True, False, True, False]
    assert in_sorted(np.empty(0, dtype=np.int64), vals).tolist() == [False] * 5


def test_group_ranks_and_first_occurrence():
    keys = np.array([3, 3, 3, 7, 7, 9], dtype=np.int64)
    assert group_ranks(keys).tolist() == [0, 1, 2, 0, 1, 0]
    mixed = np.array([4, 1, 4, 2, 1], dtype=np.int64)
    assert first_occurrence_mask(mixed).tolist() == [
        True, True, False, True, False,
    ]


def test_csr_round_trip_groups_and_expands_in_scalar_order():
    # Groups 2 -> [11, 12], 5 -> [10, 30], 8 -> [40], values ascending
    # within a group: the scalar sorted-children order.
    starts = np.array([0, 2, 4], dtype=np.int64)
    counts = np.array([2, 2, 1], dtype=np.int64)
    flat = np.array([11, 12, 10, 30, 40], dtype=np.int64)
    origin, members, within = csr_expand(
        starts, counts, flat, np.array([2, 0], dtype=np.int64)
    )
    assert origin.tolist() == [0, 1, 1]
    assert members.tolist() == [40, 11, 12]
    assert within.tolist() == [0, 0, 1]


# ----------------------------------------------------------------------
# EdgePool: differential against a scalar reference of Lemma 4.2's rule
# ----------------------------------------------------------------------
class _ScalarPool:
    """Reference flush: per tick, per source, edges drain in ascending
    birth order; within an edge, packets in (p0, p1, seq) order."""

    def __init__(self, n: int, capacity: int) -> None:
        self.n = n
        self.capacity = capacity
        self.packets = []  # (src, dst, p0, p1, seq, payload)
        self.birth = {}  # (src, dst) -> seq that created the backlog entry
        self.seq = 0

    def push(self, src, dst, p0, p1, payload):
        edge = (src, dst)
        if edge not in self.birth:
            self.birth[edge] = self.seq
        self.packets.append((src, dst, p0, p1, self.seq, payload))
        self.seq += 1

    def select(self):
        by_edge = {}
        for pkt in self.packets:
            by_edge.setdefault((pkt[0], pkt[1]), []).append(pkt)
        sent, kept = [], []
        for edge, pkts in by_edge.items():
            pkts.sort(key=lambda p: (p[2], p[3], p[4]))
            sent.extend((self.birth[edge], p) for p in pkts[: self.capacity])
            kept.extend(pkts[self.capacity:])
        sent.sort(key=lambda bp: (bp[1][0], bp[0], bp[1][2], bp[1][3], bp[1][4]))
        self.packets = kept
        live = {(p[0], p[1]) for p in kept}
        self.birth = {e: b for e, b in self.birth.items() if e in live}
        return [p for _, p in sent], sorted({p[0] for p in kept})


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_edge_pool_matches_scalar_flush_reference(seed, capacity):
    rng = np.random.default_rng(seed)
    n = 6
    pool = EdgePool(n, ("tok",), capacity=capacity)
    ref = _ScalarPool(n, capacity)
    for _ in range(4):  # ticks
        for _ in range(int(rng.integers(0, 4))):  # staged batches per tick
            count = int(rng.integers(1, 5))
            src = rng.integers(0, n, size=count)
            dst = (src + 1 + rng.integers(0, n - 1, size=count)) % n
            p0 = rng.integers(0, 3, size=count)
            p1 = rng.integers(0, 2, size=count)
            tok = rng.integers(0, 100, size=count)
            pool.push(src, dst, p0, p1, tok=tok)
            for s, d, a, b, t in zip(src, dst, p0, p1, tok):
                ref.push(int(s), int(d), int(a), int(b), int(t))
        assert pool.pending_sources().tolist() == sorted(
            {p[0] for p in ref.packets}
        )
        emitted, wake = pool.select(np.arange(n))
        sent, ref_wake = ref.select()
        if emitted is None:
            assert not sent
            continue
        got = list(zip(
            emitted["src"].tolist(), emitted["dst"].tolist(),
            emitted["p0"].tolist(), emitted["p1"].tolist(),
            emitted["tok"].tolist(),
        ))
        want = [(p[0], p[1], p[2], p[3], p[5]) for p in sent]
        assert got == want
        assert wake.tolist() == ref_wake


class _HeapModel:
    """Lemma 4.2's per-edge heaps, as ``QueuedProgram`` keeps them — its one
    representation: ``{src: {dst: heap of (priority, seq, payload)}}``, a
    drained destination's key deleted, a flush per backlogged source in
    node order and per destination in dict (insertion) order, up to
    ``capacity`` pops each.  The pool's no-backlog path is the pool's own;
    the model has none."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.queues = {}
        self.seq = 0

    def push(self, src, dst, priority, payload):
        self.seq += 1
        heappush(
            self.queues.setdefault(src, {}).setdefault(dst, []),
            (priority, self.seq, payload),
        )

    def flush(self):
        sent, wake = [], []
        for src in sorted(self.queues):
            by_dst = self.queues[src]
            for dst in list(by_dst):
                for _ in range(min(self.capacity, len(by_dst[dst]))):
                    priority, _seq, payload = heappop(by_dst[dst])
                    sent.append((src, dst, *priority, payload))
                if not by_dst[dst]:
                    del by_dst[dst]
            if by_dst:
                wake.append(src)
            else:
                del self.queues[src]
        return sent, wake


def _enqueue_schedule(seed, n, ticks, duplicates):
    """Random staged enqueue batches: per tick, a list of ``(src, dst, p0,
    p1, tok)`` column lists, sources out of order.  Without
    ``duplicates`` no directed edge repeats within a tick."""
    rng = np.random.default_rng(seed)
    schedule = []
    for _tick in range(ticks):
        taken = set()
        batches = []
        for _ in range(int(rng.integers(0, 4))):
            src, dst = [], []
            for _ in range(int(rng.integers(1, 6))):
                u = int(rng.integers(0, n))
                v = int((u + 1 + rng.integers(0, n - 1)) % n)
                if duplicates or (u, v) not in taken:
                    taken.add((u, v))
                    src.append(u)
                    dst.append(v)
            p0 = rng.integers(0, 3, size=len(src)).tolist()
            p1 = rng.integers(0, 2, size=len(src)).tolist()
            tok = rng.integers(0, 100, size=len(src)).tolist()
            batches.append((src, dst, p0, p1, tok))
        schedule.append(batches)
    return schedule


def _push_rows(model, batch):
    for u, v, a, b, t in zip(*batch):
        model.push(u, v, (a, b), t)


@pytest.mark.parametrize("by_source", [False, True])
@pytest.mark.parametrize("duplicates", [False, True])
@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_edge_pool_matches_queued_program_heaps(
    duplicates, by_source, seed, capacity
):
    """Both pool paths against the scalar representation they mirror.

    Without duplicate edges nothing ever backlogs, so every tick takes
    the no-backlog path (one packet per edge: birth == seq); with them,
    ticks take the general path, and a tick after a drained backlog goes
    back to the fast one.  Sources arrive out of order either way — or,
    ``by_source``, the pool gets each batch regrouped source by source
    while the model keeps the scalar enqueue order: only the order of a
    source's own packets may matter.
    """
    n = 7
    pool = EdgePool(n, ("tok",), capacity=capacity)
    model = _HeapModel(capacity)
    for batches in _enqueue_schedule(seed, n, 6, duplicates):
        for batch in batches:
            _push_rows(model, batch)
            src, dst, p0, p1, tok = (
                np.array(col, dtype=np.int64) for col in batch
            )
            if by_source:
                order = np.argsort(src, kind="stable")
                src, dst, p0, p1, tok = (
                    col[order] for col in (src, dst, p0, p1, tok)
                )
            pool.push(src, dst, p0, p1, tok=tok)
        emitted, wake = pool.select(np.arange(n))
        sent, model_wake = model.flush()
        got = [] if emitted is None else list(zip(*(
            emitted[name].tolist() for name in ("src", "dst", "p0", "p1", "tok")
        )))
        assert got == sent
        assert wake.tolist() == model_wake
        if not duplicates:
            assert wake.size == 0 and len(pool) == 0


class _ScheduledQueues(QueuedProgram):
    """Replays an enqueue schedule on the engine: a timer activates each
    source at every tick it has packets for, it enqueues them in schedule
    order, and every dequeue is logged under the tick that sent it."""

    name = "scheduled_queues"

    def __init__(self, schedule, capacity: int) -> None:
        super().__init__(capacity=capacity)
        self.due = {}  # (tick, src) -> [(dst, priority, payload)]
        for tick, batches in enumerate(schedule, start=1):
            for batch in batches:
                for u, v, a, b, t in zip(*batch):
                    self.due.setdefault((tick, u), []).append(
                        (v, (a, b), (a, b, t))
                    )
        self.tick = 0
        self.log = {}

    def on_start(self, ctx):
        for tick, src in self.due:
            ctx.wake_at(src, tick)

    def on_activate(self, ctx, node):
        self.tick = ctx.tick
        for dst, priority, payload in self.due.pop((ctx.tick, node), ()):
            self.enqueue(ctx, node, dst, priority, payload)

    def handle(self, ctx, node, inbox):
        pass

    def on_dequeue(self, src, dst, payload):
        self.log.setdefault(self.tick, []).append((src, dst, *payload))


@pytest.mark.parametrize("duplicates", [False, True])
@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_queued_program_matches_the_heap_model(duplicates, seed, capacity):
    """``QueuedProgram`` on the scalar engine against the same model, on
    the same schedules: what it dequeues at each tick, in order, until
    every backlog has drained.  Without duplicate edges no source ever
    backlogs and each flush sends its packets in enqueue order; with
    them, edges queue across ticks and drain in birth order."""
    n = 7
    schedule = _enqueue_schedule(seed, n, 6, duplicates)
    model = _HeapModel(capacity)
    expected = []
    for batches in schedule:
        for batch in batches:
            _push_rows(model, batch)
        expected.append(model.flush()[0])
    while model.queues:
        expected.append(model.flush()[0])
    program = _ScheduledQueues(schedule, capacity)
    stats = Engine(complete_graph(n)).run(
        program, max_ticks=100, capacity=capacity
    )
    assert max(program.log, default=0) <= len(expected)
    assert [program.log.get(t, []) for t in range(1, len(expected) + 1)] == (
        expected
    )
    assert stats.messages == sum(map(len, expected))


def test_edge_pool_len_and_empty_select():
    pool = EdgePool(4, ("tok",))
    everyone = np.arange(4)
    assert len(pool) == 0
    emitted, wake = pool.select(everyone)
    assert emitted is None and wake.size == 0
    pool.push(0, 1, 0, 0, tok=np.array([1, 2], dtype=np.int64))
    assert len(pool) == 2
    emitted, wake = pool.select(everyone)  # capacity 1: one sent, one kept
    assert emitted["tok"].tolist() == [1]
    assert len(pool) == 1 and wake.tolist() == [0]
    emitted, wake = pool.select(everyone)
    assert emitted["tok"].tolist() == [2] and wake.size == 0


def test_a_source_that_did_not_activate_keeps_its_packets():
    """A woken source that the tick did not activate (a fault plan dropped
    its wake) neither flushes nor is woken again; it flushes, in birth
    order, the next tick it activates — a scalar node's rule."""
    pool = EdgePool(4, ("tok",))
    pool.push(0, 1, 0, 0, tok=np.array([1, 2], dtype=np.int64))
    pool.push(2, 3, 0, 0, tok=3)
    assert pool.pending_sources().tolist() == [0, 2]
    emitted, wake = pool.select(np.array([2]))
    assert emitted["tok"].tolist() == [3] and wake.size == 0
    pool.push(0, 2, 0, 0, tok=4)
    emitted, wake = pool.select(np.array([1]))
    assert emitted["tok"].tolist() == [] and wake.size == 0 and len(pool) == 3
    emitted, wake = pool.select(np.array([0]))
    assert emitted["tok"].tolist() == [1, 4] and wake.tolist() == [0]
    emitted, wake = pool.select(np.array([0]))
    assert emitted["tok"].tolist() == [2] and wake.size == 0
