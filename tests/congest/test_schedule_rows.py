"""Delay rows: ``Schedule.delays`` is ``Schedule.delay``, batched.

``delay`` stays the single definition of a schedule; ``delays`` is the
same pure function over an edge list.  The built-in schedules compute it
with numpy, so this file holds them to the scalar loop (the reference),
runs a ``delay``-only user schedule through a whole PA against literals
captured on the per-message engine, and pins that the engine rejects a
negative or non-int delay of *any* kind on *any* used edge — and that a
broken schedule fails loudly, up front, at engine construction.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import (
    AsyncEngine,
    FIFORandomSchedule,
    RandomDelaySchedule,
    Schedule,
    ScheduleValidationError,
    SlowEdgeSchedule,
    SynchronousSchedule,
    make_schedule,
    validate_schedule,
)
from repro.congest.engine import FunctionProgram
from repro.congest.schedule import ACK, PAYLOAD, SAFE
from repro.core import SUM, PASolver, solve_pa
from repro.graphs import bfs_ball_partition, grid_2d, path_graph

KINDS = (PAYLOAD, ACK, SAFE)

seeds = st.one_of(
    st.integers(0, 2**30),
    st.integers(2**63, 2**64 + 5),
    st.integers(-(2**63), -1),
)
pulses = st.one_of(st.integers(0, 64), st.integers(0, 2**40))
edge_lists = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(0, 5000)), max_size=40
)


@st.composite
def schedules(draw):
    seed = draw(seeds)
    kind = draw(st.sampled_from(("sync", "random", "fifo", "slow-edge")))
    return make_schedule(
        kind, seed=seed,
        max_delay=draw(st.sampled_from((0, 1, 3, 2**31))),
        slow_fraction=draw(st.sampled_from((0.0, 0.2, 1.0))),
        slow_delay=draw(st.sampled_from((0, 8))),
    )


def _loop(schedule, srcs, dsts, pulse, kind):
    return [schedule.delay(s, d, pulse, kind) for s, d in zip(srcs, dsts)]


@given(schedules(), edge_lists, edge_lists, pulses, pulses, st.sampled_from(KINDS))
@settings(max_examples=200, deadline=None)
def test_batch_equals_scalar_loop(schedule, edges, other_edges, pulse, later, kind):
    srcs = tuple(s for s, _ in edges)
    dsts = tuple(d for _, d in edges)
    expect = _loop(schedule, srcs, dsts, pulse, kind)
    row = schedule.delays(srcs, dsts, pulse, kind)
    assert row == expect
    assert all(type(d) is int for d in row)
    # Same tuples again: the per-edge-list state is reused, and another
    # (pulse, kind) over it is still the scalar function.
    assert schedule.delays(srcs, dsts, pulse, kind) == expect
    for k in KINDS:
        assert schedule.delays(srcs, dsts, later, k) == _loop(
            schedule, srcs, dsts, later, k
        )
    # A second edge list (another network, another phase) must not read
    # the first one's state — nor may an equal list that is not a tuple.
    srcs2 = tuple(s for s, _ in other_edges)
    dsts2 = tuple(d for _, d in other_edges)
    assert schedule.delays(srcs2, dsts2, pulse, kind) == _loop(
        schedule, srcs2, dsts2, pulse, kind
    )
    assert schedule.delays(list(srcs), list(dsts), pulse, kind) == expect
    assert schedule.delays(srcs, dsts, pulse, kind) == expect


def test_rows_are_the_callers_to_keep():
    schedule = make_schedule("slow-edge", seed=9, slow_fraction=0.5)
    srcs, dsts = (0, 1, 2, 3), (1, 2, 3, 4)
    row = schedule.delays(srcs, dsts, 0, SAFE)
    expect = list(row)
    row[0] = -1
    assert schedule.delays(srcs, dsts, 5, ACK) == expect


# ---------------------------------------------------------------------------
# A schedule defined only by ``delay`` still runs, event for event
# ---------------------------------------------------------------------------
class _EdgeParity(Schedule):
    """Overrides ``delay`` alone; rows come from the base-class loop."""

    name = "edge-parity"

    def delay(self, src, dst, pulse, kind):
        return (3 * src + 5 * dst + pulse + 2 * kind) % 4


def test_delay_only_user_schedule_matches_the_per_message_engine():
    """Literals captured on the parent commit (one ``delay`` call per
    message, binary-heap queue): ``(time_units, max_skew, safe, ack)``.
    The last record — the solve's ``pa_replay`` — moved once since, when a
    learning solve began to replay on its forest (PR 21: (38, 1, 192, 14)
    before, and 25 rounds / 272 messages in all); the first and third —
    ``leader_election`` and ``subpart_probe`` — when the token floods
    stopped handing a token back to the neighbors that had just delivered
    it ((73, 1, 336, 177) and (30, 2, 144, 26) before, 24 / 270 in all);
    the seventh and eighth — ``pa_wave`` and ``pa_reverse`` — when the
    token wave began to hand a token on in the tick a node gains it and
    never back to a neighbor that sent it ((38, 1, 192, 14) and (34, 1,
    192, 14) before, 23 / 207 in all); the first and second —
    ``leader_election`` and ``child_ack`` — when only self-sampled
    candidates began to start the election's flood ((60, 1, 288, 115)
    and (14, 1, 48, 15) before, 21 / 205 in all)."""
    net = grid_2d(4, 4)
    partition = bfs_ball_partition(net, target_size=5, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]
    solver = PASolver(net, seed=7, schedule=_EdgeParity())
    res = solve_pa(net, partition, values, SUM, seed=7, solver=solver)
    assert res.aggregates == {0: 64, 1: 80, 2: 58, 3: 11}
    assert (res.rounds, res.messages) == (20, 153)
    assert [
        (o.time_units, o.max_skew, o.safe_messages, o.ack_messages)
        for o in solver.engine.overhead_log
    ] == [
        (52, 1, 240, 63), (10, 1, 48, 15), (30, 2, 144, 25), (2, 0, 0, 0),
        (19, 2, 96, 12), (2, 0, 0, 0), (29, 1, 144, 13), (24, 1, 144, 13),
        (29, 1, 144, 12),
    ]


# ---------------------------------------------------------------------------
# Every kind, every used edge: bad delays never reach the event queue
# ---------------------------------------------------------------------------
#: An edge of the 6x6 grid beyond ``validate_schedule``'s 8-edge probe.
_UNPROBED = (20, 21)


class _BadOnOneEdge(Schedule):
    def __init__(self, kind, value):
        self.kind = kind
        self.value = value
        self.name = f"bad-{kind}"

    def delay(self, src, dst, pulse, kind):
        if kind == self.kind and (src, dst) == _UNPROBED:
            return self.value
        return 0


@pytest.mark.parametrize("kind", KINDS, ids=("payload", "ack", "safe"))
@pytest.mark.parametrize("value", (-5, 1.5), ids=("negative", "float"))
def test_bad_delay_of_any_kind_beyond_the_probe_raises(kind, value):
    net = grid_2d(6, 6)
    schedule = _BadOnOneEdge(kind, value)
    validate_schedule(schedule, net)  # the construction probe misses it
    partition = bfs_ball_partition(net, target_size=6, seed=3)
    values = [1] * net.n
    with pytest.raises(ScheduleValidationError) as err:
        solver = PASolver(net, seed=7, schedule=schedule)
        solve_pa(net, partition, values, SUM, seed=7, solver=solver)
    assert (err.value.src, err.value.dst) == _UNPROBED
    assert err.value.kind == kind


class _ShortRows(Schedule):
    name = "short-rows"

    def delay(self, src, dst, pulse, kind):
        return 0

    def delays(self, srcs, dsts, pulse, kind):
        return [0] * (len(srcs) - 1)


def test_row_of_the_wrong_length_is_rejected():
    net = grid_2d(3, 3)
    engine = AsyncEngine(net, _ShortRows())

    def start(ctx):
        ctx.send(0, 1, ("tok",))

    with pytest.raises(ValueError, match="23 entries for 24 edges"):
        engine.run(FunctionProgram("one", start, lambda *a: None), max_ticks=5)


# ---------------------------------------------------------------------------
# A send along a non-edge (strict_edges=False) has no slot in a row
# ---------------------------------------------------------------------------
def _off_edge_run(schedule):
    net = path_graph(5)
    engine = AsyncEngine(net, schedule, strict_bits=False, strict_edges=False)
    got = []

    def start(ctx):
        ctx.send(0, 4, ("far",))
        ctx.send(0, 1, ("near",))

    def step(ctx, node, inbox):
        got.append((ctx.tick, node, inbox))

    engine.run(FunctionProgram("hop", start, step), max_ticks=20)
    return engine.overhead_log[-1], got


@pytest.mark.parametrize(
    "schedule",
    [RandomDelaySchedule(seed=4, max_delay=5), FIFORandomSchedule(seed=4, max_delay=5)],
    ids=("random", "fifo"),
)
def test_off_edge_send_draws_its_delay_one_by_one(schedule):
    overhead, got = _off_edge_run(schedule)
    # The pulse runs as the synchronous tick: activations in node order.
    assert got == [(1, 1, ((0, ("near",)),)), (1, 4, ((0, ("far",)),))]
    # Captured on the parent commit.
    assert (
        overhead.time_units, overhead.max_skew,
        overhead.safe_messages, overhead.ack_messages,
    ) == (14, 1, 8, 2)


class _NegativeOffEdge(Schedule):
    name = "negative-off-edge"

    def delay(self, src, dst, pulse, kind):
        return -2 if (src, dst) == (0, 4) else 0


def test_off_edge_draw_is_checked_too():
    with pytest.raises(ScheduleValidationError) as err:
        _off_edge_run(_NegativeOffEdge())
    assert (err.value.src, err.value.dst, err.value.kind) == (0, 4, PAYLOAD)


# ---------------------------------------------------------------------------
# Schedule validation: broken schedules fail loudly, up front
# ---------------------------------------------------------------------------

class _NegativeSchedule(Schedule):
    name = "negative"
    fifo = False

    def delay(self, src, dst, pulse, kind):
        return -1


class _FloatSchedule(Schedule):
    name = "float"
    fifo = False

    def delay(self, src, dst, pulse, kind):
        return 0.5


class _StatefulSchedule(Schedule):
    """Illegally draws from a stream: same coordinate, changing answer."""

    name = "stateful"
    fifo = False

    def __init__(self):
        self._counter = itertools.count()

    def delay(self, src, dst, pulse, kind):
        return next(self._counter) % 2


class _LateNegativeSchedule(Schedule):
    """Passes the construction probe, turns negative at runtime."""

    name = "late-negative"
    fifo = False

    def delay(self, src, dst, pulse, kind):
        return -3 if pulse == 3 else 0


@pytest.mark.parametrize(
    "schedule", [_NegativeSchedule(), _FloatSchedule(), _StatefulSchedule()],
    ids=lambda s: s.name,
)
def test_broken_schedules_rejected_at_engine_construction(schedule):
    net = grid_2d(3, 3)
    with pytest.raises(ScheduleValidationError):
        AsyncEngine(net, schedule)


def test_validation_error_names_the_offending_coordinate():
    net = path_graph(4)
    with pytest.raises(ScheduleValidationError) as err:
        validate_schedule(_NegativeSchedule(), net)
    assert err.value.src is not None and err.value.dst is not None
    assert "negative" in str(err.value)


def test_runtime_guard_catches_late_negative_delays():
    net = path_graph(6)
    engine = AsyncEngine(net, _LateNegativeSchedule())  # probe passes

    def start(ctx):
        for nb in net.neighbors[0]:
            ctx.send(0, nb, ("tok",))

    seen = set()

    def step(ctx, node, inbox):
        if node not in seen:
            seen.add(node)
            for nb in net.neighbors[node]:
                ctx.send(node, nb, ("tok",))

    with pytest.raises(ScheduleValidationError):
        engine.run(FunctionProgram("flood", start, step), max_ticks=50)


def test_good_schedules_validate_clean():
    net = grid_2d(3, 3)
    for schedule in (
        SynchronousSchedule(),
        RandomDelaySchedule(seed=1, max_delay=0),
        SlowEdgeSchedule(seed=2, slow_fraction=1.0, slow_delay=4),
        RandomDelaySchedule(seed=5, max_delay=4),
    ):
        validate_schedule(schedule, net)  # must not raise
