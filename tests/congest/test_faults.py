"""Fault plans: pure predicates, seeded derivation, engine injection."""

import pytest

from repro.congest import (
    AsyncEngine,
    CrashEvent,
    FaultPlan,
    MessageLoss,
    PartitionEvent,
    RandomDelaySchedule,
    SynchronousSchedule,
)
from repro.congest.engine import FunctionProgram
from repro.congest.faults import FaultReport
from repro.graphs import grid_2d, path_graph


def _flood(net, engine, name="flood"):
    """Token flood from node 0; returns (stats, covered set)."""
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

    stats = engine.run(FunctionProgram(name, start, step), max_ticks=200)
    return stats, seen


# ---------------------------------------------------------------------------
# Event validation and pure predicates
# ---------------------------------------------------------------------------

def test_crash_event_validation():
    with pytest.raises(ValueError):
        CrashEvent(node=0, at=0)  # pulse 0 is on_start
    with pytest.raises(ValueError):
        CrashEvent(node=0, at=5, recover_at=5)
    ev = CrashEvent(node=0, at=5, recover_at=9)
    assert (ev.at, ev.recover_at) == (5, 9)


def test_message_loss_validation_and_window():
    with pytest.raises(ValueError):
        MessageLoss(rate=1.5)
    with pytest.raises(ValueError):
        MessageLoss(rate=0.5, start=0)
    with pytest.raises(ValueError):
        MessageLoss(rate=0.5, start=4, end=4)
    loss = MessageLoss(rate=1.0, start=5, end=9)
    assert not loss.lost(0, 1, 4)
    assert loss.lost(0, 1, 5) and loss.lost(0, 1, 8)
    assert not loss.lost(0, 1, 9)
    assert not MessageLoss(rate=0.0).lost(0, 1, 7)


def test_message_loss_is_a_pure_seeded_hash():
    loss = MessageLoss(rate=0.5, seed=3)
    coords = [(s, d, p) for s in range(6) for d in range(6) for p in range(1, 40)
              if s != d]
    first = [loss.lost(*c) for c in coords]
    assert first == [loss.lost(*c) for c in coords]
    rate = sum(first) / len(first)
    assert 0.35 < rate < 0.65  # honest coin at the configured rate
    other = [MessageLoss(rate=0.5, seed=4).lost(*c) for c in coords]
    assert other != first  # the seed matters


def test_partition_event_cut_and_window():
    part = PartitionEvent(at=3, heal_at=7, side=frozenset({0, 1}))
    assert part.down(1, 2, 3) and part.down(2, 1, 6)
    assert not part.down(0, 1, 5)  # same shore
    assert not part.down(1, 2, 2) and not part.down(1, 2, 7)
    with pytest.raises(ValueError):
        PartitionEvent(at=3, heal_at=2, side=frozenset({0}))
    with pytest.raises(ValueError):
        PartitionEvent(at=3, heal_at=9, side=frozenset())


def test_plan_alive_spans_and_clear_after():
    plan = FaultPlan(crashes=(
        CrashEvent(node=2, at=4, recover_at=10),
        CrashEvent(node=5, at=1, recover_at=3),
    ))
    assert plan.alive(2, 3) and not plan.alive(2, 4)
    assert not plan.alive(2, 9) and plan.alive(2, 10)
    assert plan.alive(0, 100)
    assert plan.clear_after == 10
    assert FaultPlan(crashes=(CrashEvent(node=1, at=2),)).clear_after is None
    assert FaultPlan().empty and FaultPlan().clear_after == 1


def test_seeded_plan_is_pure_and_recoverable():
    a = FaultPlan.seeded(9, 20, crashes=2, loss_rate=0.1)
    b = FaultPlan.seeded(9, 20, crashes=2, loss_rate=0.1)
    assert a == b
    assert len(a.crashes) == 2 and len(a.losses) == 1
    assert all(0 <= ev.node < 20 for ev in a.crashes)
    assert a.clear_after is not None  # recover=True + bounded loss window
    assert FaultPlan.seeded(3, 20, crashes=2) != FaultPlan.seeded(4, 20, crashes=2)
    # Never every node: a single-node network cannot lose its only node.
    assert FaultPlan.seeded(0, 1, crashes=5).crashes == ()


def test_fault_report_affected_property():
    report = FaultReport(phase="p")
    assert not report.affected
    report.dropped_payloads += 1
    assert report.affected


# ---------------------------------------------------------------------------
# Injection through the engine
# ---------------------------------------------------------------------------

def test_empty_plan_is_normalized_to_no_plan():
    net = grid_2d(3, 4)
    faulty = AsyncEngine(net, faults=FaultPlan())
    assert faulty.faults is None
    plain = AsyncEngine(net)
    stats_f, seen_f = _flood(net, faulty)
    stats_p, seen_p = _flood(net, plain)
    assert seen_f == seen_p and stats_f == stats_p
    assert faulty.fault_log == []  # no plan -> no reports, ever


def test_crashed_node_blocks_the_flood_and_is_reported():
    net = path_graph(5)
    plan = FaultPlan(crashes=(CrashEvent(node=2, at=1),))
    engine = AsyncEngine(net, faults=plan)
    _stats, seen = _flood(net, engine)
    assert seen == {0, 1}  # the crash severs the path
    report = engine.fault_log[-1]
    assert report.affected
    assert report.dropped_payloads >= 1  # 1 -> 2 payload dropped
    assert report.delivery_timeouts == report.dropped_payloads


def test_dead_pulse_timer_is_suppressed_and_counted():
    net = path_graph(2)
    plan = FaultPlan(crashes=(CrashEvent(node=1, at=4, recover_at=8),))
    engine = AsyncEngine(net, faults=plan)
    fired = []

    def start(ctx):
        ctx.wake_at(1, 5)  # a dead pulse: the timer must not fire
        ctx.wake_at(1, 9)  # after recovery: this one must

    def step(ctx, node, inbox):
        fired.append((node, ctx.tick))

    engine.run(FunctionProgram("timers", start, step), max_ticks=12)
    assert fired == [(1, 9)]
    report = engine.fault_log[-1]
    assert report.suppressed_activations >= 1
    assert report.dropped_timers >= 1


def test_recovered_node_accepts_later_deliveries():
    net = path_graph(2)
    plan = FaultPlan(crashes=(CrashEvent(node=1, at=1, recover_at=5),))
    engine = AsyncEngine(net, faults=plan)
    got = []

    def start(ctx):
        ctx.send(0, 1, ("early",))  # lands at pulse 1: dropped
        ctx.wake_at(0, 8)

    def step(ctx, node, inbox):
        if node == 0 and not inbox:
            ctx.send(0, 1, ("late",))  # lands at pulse 9: delivered
        elif node == 1:
            got.extend(payload for _src, payload in inbox)

    engine.run(FunctionProgram("retry", start, step), max_ticks=20)
    assert got == [("late",)]
    assert engine.fault_log[-1].dropped_payloads == 1


def test_total_loss_window_drops_exactly_its_pulses():
    net = path_graph(4)
    plan = FaultPlan(losses=(MessageLoss(rate=1.0, start=1, end=2),))
    engine = AsyncEngine(net, faults=plan)
    _stats, seen = _flood(net, engine)
    # Pulse-1 deliveries (the on_start sends) are all lost; the flood
    # has no retry, so it dies at the source.
    assert seen == {0}
    report = engine.fault_log[-1]
    assert report.dropped_payloads == 1  # node 0's single neighbor
    assert report.delivery_timeouts == 1


def test_partition_stalls_the_cut_but_the_phase_terminates():
    net = path_graph(4)
    plan = FaultPlan(
        partitions=(PartitionEvent(at=1, heal_at=None, side=frozenset({0, 1})),)
    )
    engine = AsyncEngine(net, faults=plan)
    _stats, seen = _flood(net, engine)
    # Node 1 borders the cut: its pulse gate waits on safe waves from
    # node 2, which the cut drops — both shores stall at the cut, so the
    # flood never leaves node 0, yet the phase still quiesces.
    assert seen == {0}
    report = engine.fault_log[-1]
    assert report.affected
    assert report.dropped_control >= 1  # safe waves are cut


def test_global_pulse_accumulates_and_locates_later_phases():
    net = path_graph(5)
    plain = AsyncEngine(net)
    first_stats, _ = _flood(net, plain)
    # Crash node 2 only during the *second* phase's global window.
    plan = FaultPlan(crashes=(
        CrashEvent(node=2, at=first_stats.ticks + 1, recover_at=None),
    ))
    engine = AsyncEngine(net, faults=plan)
    _stats, seen_one = _flood(net, engine, name="flood-1")
    assert seen_one == {0, 1, 2, 3, 4}  # phase 1 predates the crash
    assert not engine.fault_log[0].affected
    assert engine.global_pulse == first_stats.ticks
    _stats, seen_two = _flood(net, engine, name="flood-2")
    assert seen_two == {0, 1}  # same plan, same code: now it bites
    assert engine.fault_log[1].affected


def test_faults_compose_with_delayed_schedules():
    net = grid_2d(3, 4)
    plan = FaultPlan(crashes=(CrashEvent(node=5, at=1, recover_at=None),))
    for schedule in (SynchronousSchedule(), RandomDelaySchedule(seed=3, max_delay=4)):
        engine = AsyncEngine(net, schedule, faults=plan)
        _stats, seen = _flood(net, engine)
        assert 5 not in seen
        assert engine.fault_log[-1].affected
