"""The asynchronous engine: parity, out-of-orderness, overhead accounting."""

import pytest

from repro.congest import (
    AsyncEngine,
    BandwidthExceededError,
    ChannelCapacityError,
    Engine,
    FIFORandomSchedule,
    NotAnEdgeError,
    RandomDelaySchedule,
    RoundLimitExceededError,
    SlowEdgeSchedule,
    SynchronousSchedule,
    make_schedule,
)
from repro.congest.engine import FunctionProgram
from repro.congest.schedule import ACK, PAYLOAD, SAFE
from repro.core.aggregation import SUM
from repro.core.pa import PASolver, solve_pa
from repro.graphs import grid_2d, path_graph, random_connected, star_graph
from repro.graphs.partitions import random_connected_partition
from repro.runtime import PASession, ensure_session

ALL_SCHEDULES = [
    SynchronousSchedule(),
    RandomDelaySchedule(seed=3, max_delay=4),
    SlowEdgeSchedule(seed=7, slow_fraction=0.3, slow_delay=6),
    FIFORandomSchedule(seed=11, max_delay=5),
]


def _flood(net, engine):
    """Run a token flood from node 0; return (stats, covered set)."""
    seen = set()

    def start(ctx):
        seen.add(0)
        for nb in net.neighbors[0]:
            ctx.send(0, nb, ("tok",))

    def step(ctx, node, inbox):
        if node in seen:
            return
        seen.add(node)
        for nb in net.neighbors[node]:
            ctx.send(node, nb, ("tok",))

    stats = engine.run(FunctionProgram("flood", start, step), max_ticks=200)
    return stats, seen


def _phase_log(ledger):
    return [(p.name, p.rounds, p.messages, p.ticks) for p in ledger.phases()]


# ---------------------------------------------------------------------------
# Parity with the synchronous engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.name)
def test_flood_parity_under_every_schedule(schedule):
    net = grid_2d(4, 5)
    sync_stats, sync_seen = _flood(net, Engine(net))
    async_stats, async_seen = _flood(net, AsyncEngine(net, schedule))
    assert async_seen == sync_seen
    assert (async_stats.rounds, async_stats.messages, async_stats.ticks) == (
        sync_stats.rounds, sync_stats.messages, sync_stats.ticks
    )


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_pa_delay0_ledger_bit_for_bit(mode):
    net = grid_2d(5, 6)
    part = random_connected_partition(net, 5, seed=4)
    values = [v * 3 % 17 for v in range(net.n)]
    base = solve_pa(net, part, values, SUM, mode=mode, seed=2)
    res = solve_pa(
        net, part, values, SUM, mode=mode, seed=2,
        solver=PASolver(
            net, mode=mode, seed=2, schedule=SynchronousSchedule()
        ),
    )
    assert res.aggregates == base.aggregates
    assert res.value_at_node == base.value_at_node
    assert _phase_log(res.ledger) == _phase_log(base.ledger)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES[1:], ids=lambda s: s.name)
def test_pa_outputs_identical_under_delayed_schedules(schedule):
    net = random_connected(30, 0.08, seed=5)
    part = random_connected_partition(net, 4, seed=6)
    values = list(range(net.n))
    base = solve_pa(net, part, values, SUM, seed=1)
    res = solve_pa(
        net, part, values, SUM, seed=1,
        solver=PASolver(net, seed=1, schedule=schedule),
    )
    assert res.aggregates == base.aggregates
    assert res.value_at_node == base.value_at_node


def test_async_mode_flag_selects_delay0_schedule():
    # The flag is retired: it was exactly schedule=SynchronousSchedule().
    net = path_graph(8)
    with pytest.raises(TypeError):
        PASolver(net, async_mode=True)
    solver = PASolver(net, schedule=SynchronousSchedule())
    assert isinstance(solver.engine, AsyncEngine)
    assert isinstance(solver.schedule, SynchronousSchedule)


def test_empty_program_runs_zero_rounds():
    net = path_graph(4)

    def start(ctx):
        pass

    def step(ctx, node, inbox):  # pragma: no cover - never activated
        raise AssertionError

    stats = AsyncEngine(net, SynchronousSchedule()).run(
        FunctionProgram("noop", start, step), max_ticks=5
    )
    assert (stats.rounds, stats.messages, stats.ticks) == (0, 0, 0)


def test_timer_wakeup_fires_at_exact_pulse():
    net = path_graph(3)
    fired = {}

    def start(ctx):
        ctx.wake_at(2, 7)

    def step(ctx, node, inbox):
        fired[node] = ctx.tick

    for engine in (Engine(net), AsyncEngine(net, RandomDelaySchedule(1, 3))):
        fired.clear()
        stats = engine.run(FunctionProgram("timer", start, step), max_ticks=10)
        assert fired == {2: 7}
        assert stats.ticks == 7


# ---------------------------------------------------------------------------
# Genuine asynchrony: out-of-order delivery and bounded skew
# ---------------------------------------------------------------------------

def test_delayed_schedules_produce_pulse_skew():
    net = grid_2d(4, 5)
    engine = AsyncEngine(net, SlowEdgeSchedule(seed=7, slow_fraction=0.3, slow_delay=6))
    _flood(net, engine)
    overhead = engine.overhead_log[-1]
    assert overhead.max_skew > 0  # nodes really ran pulses apart
    sync_engine = AsyncEngine(net, SynchronousSchedule())
    _flood(net, sync_engine)
    assert sync_engine.overhead_log[-1].max_skew == 0  # lockstep at delay 0


def test_inbox_resequenced_to_sync_order():
    # Node 0 sends two same-pulse messages to each neighbor of a star; a
    # non-FIFO schedule may reorder arrivals, but programs must see the
    # synchronous engine's canonical (sender, emission) inbox order.
    net = star_graph(6)
    inboxes = {}

    def start(ctx):
        ctx.wake(0)

    def step(ctx, node, inbox):
        if node == 0 and not inboxes.get("sent"):
            inboxes["sent"] = True
            for nb in net.neighbors[0]:
                ctx.send(0, nb, ("a", nb))
                ctx.send(0, nb, ("b", nb))
        elif inbox:
            inboxes[node] = tuple(payload for _s, payload in inbox)

    sync_engine = Engine(net)
    sync_engine.run(FunctionProgram("order", start, step), max_ticks=10,
                    capacity=2)
    expected = dict(inboxes)
    for schedule in ALL_SCHEDULES:
        inboxes.clear()
        AsyncEngine(net, schedule).run(
            FunctionProgram("order", start, step), max_ticks=10, capacity=2
        )
        assert dict(inboxes) == expected


# ---------------------------------------------------------------------------
# Overhead accounting (the synchronizer's separate ledger)
# ---------------------------------------------------------------------------

def test_overhead_ledger_is_separate_and_consistent():
    net = grid_2d(4, 4)
    engine = AsyncEngine(net, SynchronousSchedule())
    stats, _ = _flood(net, engine)
    assert len(engine.overhead_log) == 1
    overhead = engine.overhead_log[0]
    # One ack per payload; safes flow every pulse over every edge.
    assert overhead.payload_messages == stats.messages
    assert overhead.ack_messages == stats.messages
    assert overhead.safe_messages > 0
    assert overhead.pulses == stats.ticks
    # A pulse frame spans at least payload + ack + safe hops.
    assert overhead.time_units >= 3 * overhead.pulses
    # The overhead ledger mirrors the log: rounds=time-units,
    # messages=control traffic — and never contaminates the main stats.
    entry = engine.overhead.phases()[0]
    assert entry.rounds == overhead.time_units
    assert entry.messages == overhead.control_messages
    assert stats.messages < entry.messages


@pytest.mark.parametrize(
    "schedule, d",
    [
        (SynchronousSchedule(), 0),
        (RandomDelaySchedule(seed=1, max_delay=0), 0),
        (SlowEdgeSchedule(seed=2, slow_fraction=1.0, slow_delay=4), 4),
    ],
    ids=("sync", "random-d0", "slow-all-d4"),
)
def test_an_idle_gap_costs_its_walk_in_closed_form(schedule, d):
    # A lone timer and no messages: every pulse is an idle frame, which
    # under a uniform delay d costs 3 + d time units (enter, self-safe at
    # +2, safes arriving at +3+d) and one full safe wave of 2m messages.
    net = path_graph(3)
    two_m = sum(len(net.neighbors[v]) for v in range(net.n))
    records = []
    for timer in (10, 17):
        fired = []

        def start(ctx, timer=timer):
            ctx.wake_at(2, timer)

        def step(ctx, node, inbox):
            fired.append((node, ctx.tick))

        engine = AsyncEngine(net, schedule)
        engine.run(FunctionProgram("lone-timer", start, step), max_ticks=20)
        assert fired == [(2, timer)]
        records.append(engine.overhead_log[-1])
    short, long = records
    gap = long.pulses - short.pulses
    assert gap == 7
    assert long.time_units - short.time_units == gap * (3 + d)
    assert long.safe_messages - short.safe_messages == gap * two_m
    for rec in records:
        assert rec.safe_messages == rec.pulses * two_m
        assert rec.time_units == rec.pulses * (3 + d) + 2  # + the quiescence tail
        assert rec.payload_messages == rec.ack_messages == rec.max_skew == 0


def test_session_exposes_async_overhead():
    net = grid_2d(3, 4)
    session = PASession(
        net, solver=PASolver(net, schedule=RandomDelaySchedule(2, 3))
    )
    assert session.async_overhead is session.solver.engine.overhead
    assert session.async_overhead.messages > 0  # tree build already ran
    assert PASession(net).async_overhead is None


def test_slow_edges_stretch_the_virtual_clock():
    net = grid_2d(4, 5)
    fast = AsyncEngine(net, SynchronousSchedule())
    slow = AsyncEngine(net, SlowEdgeSchedule(seed=7, slow_fraction=0.4, slow_delay=9))
    f_stats, _ = _flood(net, fast)
    s_stats, _ = _flood(net, slow)
    # Same cost model, slower virtual clock.
    assert (f_stats.rounds, f_stats.messages) == (s_stats.rounds, s_stats.messages)
    assert slow.overhead_log[-1].time_units > fast.overhead_log[-1].time_units


# ---------------------------------------------------------------------------
# Model audits still enforced
# ---------------------------------------------------------------------------

def test_capacity_enforced_at_delivery():
    net = path_graph(2)

    def start(ctx):
        ctx.send(0, 1, ("x", 1))
        ctx.send(0, 1, ("x", 2))

    def step(ctx, node, inbox):
        pass

    with pytest.raises(ChannelCapacityError):
        AsyncEngine(net, SynchronousSchedule()).run(
            FunctionProgram("cap", start, step), max_ticks=5
        )
    # capacity=2 legalizes the same program.
    stats = AsyncEngine(net, SynchronousSchedule()).run(
        FunctionProgram("cap", start, step), max_ticks=5, capacity=2
    )
    assert stats.messages == 2


def test_edge_and_bit_audits_match_sync_engine():
    net = path_graph(3)

    def bad_edge(ctx):
        ctx.send(0, 2, ("x",))

    def fat_payload(ctx):
        ctx.send(0, 1, tuple(range(300)))

    def step(ctx, node, inbox):
        pass

    with pytest.raises(NotAnEdgeError):
        AsyncEngine(net, SynchronousSchedule()).run(
            FunctionProgram("edge", bad_edge, step), max_ticks=5
        )
    with pytest.raises(BandwidthExceededError):
        AsyncEngine(net, SynchronousSchedule()).run(
            FunctionProgram("bits", fat_payload, step), max_ticks=5
        )
    with pytest.raises(ValueError):
        AsyncEngine(net, strict_edges=False, strict_bits=True)


def test_round_limit_enforced():
    net = path_graph(2)

    def start(ctx):
        ctx.send(0, 1, ("x",))

    def step(ctx, node, inbox):
        # ping-pong forever
        other = 1 - node
        ctx.send(node, other, ("x",))

    with pytest.raises(RoundLimitExceededError):
        AsyncEngine(net, RandomDelaySchedule(1, 2)).run(
            FunctionProgram("pp", start, step), max_ticks=6
        )


# ---------------------------------------------------------------------------
# Schedules themselves
# ---------------------------------------------------------------------------

def test_schedules_are_pure_and_deterministic():
    a = RandomDelaySchedule(seed=42, max_delay=7)
    b = RandomDelaySchedule(seed=42, max_delay=7)
    draws = [(s, d, p, k) for s in range(4) for d in range(4)
             for p in range(3) for k in (PAYLOAD, ACK, SAFE)]
    assert [a.delay(*q) for q in draws] == [b.delay(*q) for q in draws]
    assert any(a.delay(*q) != 0 for q in draws)
    assert all(0 <= a.delay(*q) <= 7 for q in draws)
    c = RandomDelaySchedule(seed=43, max_delay=7)
    assert [a.delay(*q) for q in draws] != [c.delay(*q) for q in draws]


def test_slow_edge_schedule_is_symmetric_and_seeded():
    sched = SlowEdgeSchedule(seed=5, slow_fraction=0.5, slow_delay=4)
    for u, v in [(0, 1), (3, 9), (2, 7)]:
        assert sched.is_slow(u, v) == sched.is_slow(v, u)
        d_uv = sched.delay(u, v, 0, PAYLOAD)
        assert d_uv == sched.delay(v, u, 5, ACK)
        assert d_uv in (0, 4)


def test_make_schedule_registry():
    assert isinstance(make_schedule("sync"), SynchronousSchedule)
    assert isinstance(make_schedule("random", seed=1), RandomDelaySchedule)
    assert isinstance(make_schedule("slow-edge", seed=1), SlowEdgeSchedule)
    assert isinstance(make_schedule("fifo", seed=1), FIFORandomSchedule)
    assert make_schedule("fifo", seed=1).fifo
    assert not make_schedule("random", seed=1).fifo
    with pytest.raises(ValueError):
        make_schedule("bogus")
    with pytest.raises(ValueError):
        RandomDelaySchedule(max_delay=-1)
    with pytest.raises(ValueError):
        SlowEdgeSchedule(slow_fraction=1.5)


# ---------------------------------------------------------------------------
# Plumbing guards
# ---------------------------------------------------------------------------

def test_solver_and_schedule_are_mutually_exclusive():
    # Exclusive by construction: the schedule is accepted where the engine
    # is built (PASolver) and nowhere a solver can also be passed.
    net = path_graph(6)
    solver = PASolver(net)
    part = random_connected_partition(net, 2, seed=0)
    with pytest.raises(TypeError):
        solve_pa(net, part, [1] * net.n, SUM, solver=solver,
                 schedule=SynchronousSchedule())
    with pytest.raises(TypeError):
        PASession(net, solver=solver, schedule=SynchronousSchedule())
    session = PASession(net, solver=solver)
    with pytest.raises(TypeError):
        ensure_session(session, net, schedule=SynchronousSchedule())
    with pytest.raises(ValueError):
        PASolver(net, engine=solver.engine, schedule=SynchronousSchedule())


def test_single_node_network():
    from repro.congest.network import Network

    net = Network([], n=1)
    woke = []

    def start(ctx):
        ctx.wake(0)

    def step(ctx, node, inbox):
        woke.append(ctx.tick)

    stats = AsyncEngine(net, RandomDelaySchedule(1, 4)).run(
        FunctionProgram("solo", start, step), max_ticks=5
    )
    assert woke == [1]
    assert stats.ticks == 1
