"""Overhead records under non-uniform schedules, held to literals.

``time_units`` / ``max_skew`` / safe and ack counts are a function of
every event's time *and* order, so they are the witness that a change to
how the async engine draws delays or orders its queue moved nothing.
The uniform-delay idle frame is pinned in closed form by
``test_async_engine.py``; this file pins random, FIFO and slow-edge
delays, with and without a fault plan.  Every literal below was captured on the per-message, binary-heap
engine (the commit before delay rows and the calendar queue), and moved
once since, on purpose: a learning solve replays on the forest it just
learned (PR 21), so the last record of each log — the one solve's
``pa_replay`` — carries fewer payloads and acks (CHANGES lists old ->
new); every other record is the captured one.  The deterministic log
moved once more when Algorithms 5 and 6 began to speak only on news: its
division records carry fewer acks and time units, and none rose.  Both
logs moved again when flood-min and claim BFS stopped handing a token
back to the neighbors that had just delivered it: the ``leader_election``
and ``subpart_probe`` records carry fewer payloads, acks, safes and time
units, every other record is the captured one.  Under the fault plan,
whose coordinates are global pulses, the one-pulse-shorter election also
moves every later phase against the plan: the head's drop counts and the
heartbeat windows' beacons moved with it, and the healed aggregates did
not.  All of them moved once more when the token wave began to hand a
token on in the tick a node gains it and never back to a neighbor that
sent it: only ``pa_wave`` / ``pa_reverse`` / ``pa_replay`` records moved,
each to fewer or equal time units and acks.  The randomized log and the
fault-plan log moved again when only self-sampled candidates began to
start the election's flood: the ``leader_election`` record carries
fewer acks (179 -> 113) but more pulses (61 -> 72 time units, safes 480
-> 560), because the least candidate's flood reaches the last node
later than the least uid's did, and every other record of the
randomized log is the captured one.  Under the fault plan the longer
election moves every later phase against the plan's global pulses, so
the head's drop counts, its acks and the re-election tail moved with
it; the healed aggregates did not.  The schedule table
repeats ``bench_async::test_pa_schedules`` as committed in
``BENCH_baseline.json``.
"""

import hashlib

import pytest

from repro import PASession
from repro.congest import (
    CrashEvent,
    FaultPlan,
    MessageLoss,
    PartitionEvent,
    make_schedule,
)
from repro.core import SUM, PASolver
from repro.graphs import bfs_ball_partition, grid_2d
from repro.runtime import RecoveryDriver


def _tuples(log):
    return [
        (o.time_units, o.max_skew, o.safe_messages, o.ack_messages) for o in log
    ]


# ---------------------------------------------------------------------------
# The bench_async PA table: 8x8 grid, BFS-ball parts, seed 7
# ---------------------------------------------------------------------------
#: label -> (schedule, time-units, control messages, max skew).
BENCH_ASYNC_ROWS = {
    "sync": (lambda: make_schedule("sync"), 147, 10376, 0),
    "random d<=4": (
        lambda: make_schedule("random", seed=5, max_delay=4), 493, 10376, 2),
    "slow-edge 25%/d8": (
        lambda: make_schedule(
            "slow-edge", seed=9, slow_fraction=0.25, slow_delay=8),
        803, 10376, 4),
    "fifo d<=4": (
        lambda: make_schedule("fifo", seed=5, max_delay=4), 493, 10376, 2),
}


@pytest.mark.parametrize("label", BENCH_ASYNC_ROWS)
def test_bench_async_pa_table(label):
    make, time_units, control, skew = BENCH_ASYNC_ROWS[label]
    net = grid_2d(8, 8)
    partition = bfs_ball_partition(net, target_size=12, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]
    session = PASession(net, solver=PASolver(net, seed=7, schedule=make()))
    res = session.solve(session.prepare(partition), values, SUM)
    res.ledger.merge(session.tree_ledger, prefix="tree:")
    assert (res.rounds, res.messages) == (43, 744)
    phases = session.async_overhead.phases()
    assert sum(p.rounds for p in phases) == time_units
    assert sum(p.messages for p in phases) == control
    assert max(o.max_skew for o in session.solver.engine.overhead_log) == skew


# ---------------------------------------------------------------------------
# Per-phase records: 5x5 grid, ``make_schedule("random", 5)``
# ---------------------------------------------------------------------------
def _instance():
    net = grid_2d(5, 5)
    partition = bfs_ball_partition(net, target_size=6, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]
    return net, partition, values


#: ``(time_units, max_skew, safe_messages, ack_messages)`` per phase.
AGGREGATES = {0: 63, 1: 98, 2: 105, 3: 82, 4: 30}
RANDOMIZED = [(72, 2, 560, 113), (14, 1, 80, 24), (46, 2, 400, 44), (2, 0, 0, 0),
 (38, 1, 320, 20), (2, 0, 0, 0), (43, 2, 400, 24), (40, 1, 400, 24),
 (43, 2, 400, 20)]
DETERMINISTIC = [(61, 2, 480, 179), (14, 1, 80, 24), (2, 0, 0, 0),
 (2, 0, 0, 0), (14, 1, 80, 48), (2, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0),
 (14, 1, 80, 24), (2, 0, 0, 0), (14, 1, 80, 24), (2, 0, 0, 0), (2, 0, 0, 0),
 (13, 1, 80, 15), (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 5), (2, 0, 0, 0),
 (2, 0, 0, 0), (12, 1, 80, 5), (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 5),
 (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 5), (2, 0, 0, 0), (2, 0, 0, 0),
 (12, 1, 80, 5), (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 5), (2, 0, 0, 0),
 (2, 0, 0, 0), (12, 1, 80, 7), (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 5),
 (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 7), (2, 0, 0, 0), (2, 0, 0, 0),
 (12, 1, 80, 5), (2, 0, 0, 0), (2, 0, 0, 0), (12, 1, 80, 7), (2, 0, 0, 0),
 (2, 0, 0, 0), (12, 1, 80, 3), (2, 0, 0, 0), (14, 1, 80, 14), (14, 1, 80, 14),
 (13, 1, 80, 14), (14, 1, 80, 20), (14, 1, 80, 14), (13, 1, 80, 14),
 (13, 1, 80, 10), (13, 1, 80, 14), (13, 1, 80, 10), (14, 1, 80, 14),
 (11, 1, 80, 2), (12, 1, 80, 4), (14, 1, 80, 12), (13, 1, 80, 8),
 (12, 1, 80, 4), (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4),
 (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4), (14, 1, 80, 8),
 (13, 1, 80, 8), (12, 1, 80, 4), (14, 1, 80, 8), (13, 1, 80, 8),
 (12, 1, 80, 4), (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4),
 (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4), (14, 1, 80, 8),
 (13, 1, 80, 8), (12, 1, 80, 4), (14, 1, 80, 8), (13, 1, 80, 8),
 (12, 1, 80, 4), (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4),
 (14, 1, 80, 8), (13, 1, 80, 8), (12, 1, 80, 4), (14, 1, 80, 8),
 (11, 1, 80, 5), (12, 1, 80, 2), (11, 1, 80, 3), (18, 1, 160, 13),
 (27, 1, 240, 20), (29, 1, 240, 20), (13, 1, 80, 26), (27, 1, 240, 20),
 (29, 1, 240, 20), (2, 0, 0, 0), (2, 0, 0, 0), (56, 2, 480, 24),
 (13, 1, 80, 24), (56, 2, 480, 24), (102, 2, 960, 40), (2, 0, 0, 0),
 (43, 2, 400, 24), (40, 1, 400, 24), (43, 2, 400, 20)]
FAULTY_HEAD = [(73, 2, 536, 100), (55, 5, 200, 99), (84, 1, 640, 429), (86, 1, 640, 503)]
FAULTY_HEAD_REPORTS = [(18, 18, 8, 0, 0, 0), (17, 17, 8, 1, 1, 0), (115, 115, 0, 4, 1, 3),
 (57, 57, 0, 0, 0, 0)]
#: The tail is the Algorithm 9 re-election: many solves a setup, routed
#: after each setup's first since PR 20 (247 phases / (3396, 5, 26496,
#: 4243) before), and each first solve's replay on the forest it just
#: learned since PR 21 (acks 3823 -> 3807: the plan has cleared by then,
#: so the pulses and safes are equal and only the replays' payload acks
#: fall; the faulty head above did not move either time).  Its star
#: joinings publish only news since: (2586, 5, 19296, 3807) -> (2567, 5,
#: 19296, 3563), the head again unmoved.  The token wave's hand-on-at-once
#: rule: (2550, 5, 19160, 3378) -> (2544, 5, 19160, 3362), the head
#: unmoved.  A routed solve's reversal and replay became one all-reduce:
#: 187 -> 127 records, (2544, 5, 19160, 3362) -> (2244, 5, 16760, 3362) —
#: each merged record the pair's acks and payloads in no more time
#: units, every other record equal, the head unmoved.  The candidate
#: election: 127 records, (2244, 5, 16760, 3362) -> (2249, 5, 16816,
#: 3231), the head's election record and drop counts moved with the
#: longer election (see the module docstring).
FAULTY_PHASES = 127
FAULTY_TOTALS = (2249, 5, 16816, 3231)
FAULTY_SHA256 = (
    "562b90dbcf49bcec1b16b2419e3916295cdae05f53ee1a0728e74ad8984a2ff2"
)


@pytest.mark.parametrize(
    "mode, expected",
    [("randomized", RANDOMIZED), ("deterministic", DETERMINISTIC)],
    ids=("randomized", "deterministic"),
)
def test_prepare_and_solve_per_phase_overhead(mode, expected):
    net, partition, values = _instance()
    solver = PASolver(
        net, mode=mode, seed=7, schedule=make_schedule("random", 5)
    )
    session = PASession(net, solver=solver)
    res = session.solve(session.prepare(partition), values, SUM)
    assert res.aggregates == AGGREGATES
    assert _tuples(solver.engine.overhead_log) == expected


def test_per_phase_overhead_under_a_fault_plan():
    """Crash + loss + a partition window, healed by the recovery driver:
    dropped safes, delivery timeouts in the acks' place, suppressed
    activations and the stalled-safe release all feed these records."""
    net, partition, values = _instance()
    plan = FaultPlan(
        crashes=(CrashEvent(node=12, at=3, recover_at=20),),
        losses=(MessageLoss(rate=0.15, seed=3, start=2, end=30),),
        partitions=(
            PartitionEvent(at=6, heal_at=14, side=frozenset({0, 1, 5, 6})),
        ),
    )
    driver = RecoveryDriver(
        net, faults=plan, schedule=make_schedule("random", 5), seed=7
    )
    res = driver.solve_pa(partition, values, SUM)
    assert res.aggregates == AGGREGATES
    assert driver.stats.attempts == 2
    log = _tuples(driver.engine.overhead_log)
    reports = [
        (r.dropped_payloads, r.delivery_timeouts, r.dropped_control,
         r.suppressed_activations, r.dropped_wakeups, r.dropped_timers)
        for r in driver.engine.fault_log
    ]
    # The phases the plan touched, in full; everything after is clean.
    head = len(FAULTY_HEAD)
    assert log[:head] == FAULTY_HEAD
    assert reports[:head] == FAULTY_HEAD_REPORTS
    assert not any(any(r) for r in reports[head:])
    # The whole log (the re-election attempt included), by digest.
    assert len(log) == FAULTY_PHASES
    assert (
        sum(t[0] for t in log), max(t[1] for t in log),
        sum(t[2] for t in log), sum(t[3] for t in log),
    ) == FAULTY_TOTALS
    assert hashlib.sha256(repr(log).encode()).hexdigest() == FAULTY_SHA256
