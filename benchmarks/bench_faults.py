"""E-faults (PR 7): self-healing PA/MST under k seeded crashes.

The recovery driver's contract mirrors the synchronizer-tax rule: the
**main ledger carries exactly the fault-free cost** — at k=0 it is
bit-for-bit the plain async run (asserted here, every run) — while
everything recovery-specific (heartbeat windows, tainted attempts,
Algorithm 9 re-elections) lands on the separate ``recovery_overhead``
ledger.  These tables sweep k ∈ {0, 1, 2, 4} crash-recover faults from
one seeded :class:`~repro.congest.FaultPlan` per k and tabulate both
ledgers side by side: the headline (gated) metrics are the k=0 main
ledger, which must never move; the recovery columns show the tax
growing with k while the *output stays exact* (PA aggregates equal the
fault-free run's, MST equals Kruskal — asserted every run too).
"""

from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.bench import print_table, record
from repro.congest import FaultPlan, SynchronousSchedule
from repro.core import SUM, PASolver, solve_pa
from repro.graphs import (
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.runtime import PASession, RecoveryDriver

#: Crash counts swept per workload (k=0 is the bit-for-bit gate).
CRASH_COUNTS = (0, 1, 2, 4)
FAULT_SEED = 20260808


def _plan(k: int, n: int) -> FaultPlan:
    if k == 0:
        return FaultPlan()
    return FaultPlan.seeded(
        FAULT_SEED + k, n, crashes=k, recover=True,
        crash_window=(3, 30), outage=(10, 35),
    )


def _ledger_totals(ledger):
    return (
        sum(p.rounds for p in ledger.phases()),
        sum(p.messages for p in ledger.phases()),
    )


def _phase_log(ledger):
    return [(p.name, p.rounds, p.messages, p.ticks) for p in ledger.phases()]


def test_pa_crash_recovery():
    """PA with k crash-recover faults: exact output, segregated tax."""
    net = random_connected(40, 0.1, seed=17)
    partition = random_connected_partition(net, 6, seed=17)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]

    def experiment():
        rows = []
        data = {}
        ref = solve_pa(
            net, partition, values, SUM, seed=7,
            solver=PASolver(net, seed=7, schedule=SynchronousSchedule()),
        )
        for k in CRASH_COUNTS:
            driver = RecoveryDriver(net, faults=_plan(k, net.n), seed=7)
            res = driver.solve_pa(partition, values, SUM)
            assert res.aggregates == ref.aggregates
            assert res.value_at_node == ref.value_at_node
            if k == 0:
                # The no-fault path is the plain async run, to the bit.
                assert _phase_log(res.ledger) == _phase_log(ref.ledger)
                assert driver.stats.attempts == 1
                assert driver.recovery_overhead.phases() == ()
                data.update(rounds=res.rounds, messages=res.messages)
            rec_rounds, rec_msgs = _ledger_totals(driver.recovery_overhead)
            if k == max(CRASH_COUNTS):
                data.update(
                    attempts=driver.stats.attempts,
                    heartbeat_windows=driver.stats.heartbeat_windows,
                    reelections=driver.stats.reelections,
                    recovery_rounds=rec_rounds,
                    recovery_messages=rec_msgs,
                )
            rows.append((
                f"k={k}", driver.stats.attempts,
                driver.stats.heartbeat_windows, driver.stats.reelections,
                res.rounds, res.messages, rec_rounds, rec_msgs,
            ))
        data["rows"] = rows
        return data

    data = experiment()
    print_table(
        "E-faults/PA: n=40 random graph, k seeded crash-recover faults",
        ["crashes", "attempts", "hb windows", "re-elections",
         "main rounds", "main msgs", "recovery rounds", "recovery msgs"],
        data["rows"],
    )
    record(
        rounds=data["rounds"], messages=data["messages"],
        attempts=data["attempts"],
        heartbeat_windows=data["heartbeat_windows"],
        reelections=data["reelections"],
        recovery_rounds=data["recovery_rounds"],
        recovery_messages=data["recovery_messages"],
    )


def test_mst_crash_recovery():
    """MST with k crash-recover faults: exact tree, segregated tax."""
    net = with_distinct_weights(random_connected(36, 0.1, seed=23), seed=6)
    oracle = frozenset(kruskal_mst(net))

    def experiment():
        rows = []
        data = {}
        ref = minimum_spanning_tree(
            net, seed=3,
            session=PASession(
                net,
                solver=PASolver(net, seed=3, schedule=SynchronousSchedule()),
            ),
        )
        assert ref.output == oracle
        for k in CRASH_COUNTS:
            driver = RecoveryDriver(net, faults=_plan(k, net.n), seed=3)
            res = driver.minimum_spanning_tree()
            assert res.output == oracle
            if k == 0:
                assert _phase_log(res.ledger) == _phase_log(ref.ledger)
                assert driver.stats.attempts == 1
                assert driver.recovery_overhead.phases() == ()
                data.update(rounds=res.rounds, messages=res.messages)
            rec_rounds, rec_msgs = _ledger_totals(driver.recovery_overhead)
            if k == max(CRASH_COUNTS):
                data.update(
                    attempts=driver.stats.attempts,
                    heartbeat_windows=driver.stats.heartbeat_windows,
                    reelections=driver.stats.reelections,
                    recovery_rounds=rec_rounds,
                    recovery_messages=rec_msgs,
                )
            rows.append((
                f"k={k}", driver.stats.attempts,
                driver.stats.heartbeat_windows, driver.stats.reelections,
                res.rounds, res.messages, rec_rounds, rec_msgs,
            ))
        data["rows"] = rows
        return data

    data = experiment()
    print_table(
        "E-faults/MST: n=36 random graph, k seeded crash-recover faults",
        ["crashes", "attempts", "hb windows", "re-elections",
         "main rounds", "main msgs", "recovery rounds", "recovery msgs"],
        data["rows"],
    )
    record(
        rounds=data["rounds"], messages=data["messages"],
        attempts=data["attempts"],
        heartbeat_windows=data["heartbeat_windows"],
        reelections=data["reelections"],
        recovery_rounds=data["recovery_rounds"],
        recovery_messages=data["recovery_messages"],
    )
