"""E-async (PR 5): rounds / messages / time-units across delivery schedules.

The asynchronous engine runs the unmodified Theorem 1.2 pipeline behind
an alpha-synchronizer, so three quantities separate cleanly per
schedule:

* **model rounds / messages** — the main-ledger cost, which is
  schedule-invariant (the headline metrics; under the delay-0 schedule
  they are bit-for-bit the synchronous engine's, which is what the
  regression gate pins);
* **time-units** — the virtual-clock makespan, which stretches with the
  schedule's delays (×~3 at delay-0: the synchronizer's three-slot
  pulse frame, then growing with random and adversarial slow-edge
  delays);
* **synchronizer control messages** — acks + safe waves, the classic
  ~2m-per-pulse alpha-synchronizer tax that message-frugal algorithms
  keep small relative to *payloads carried*.

``max pulse skew`` witnesses genuine out-of-order execution: 0 in
lockstep, > 0 whenever delays are heterogeneous.

Workloads: one PA solve (grid, BFS-ball parts) and one full MST
(random graph), each under four schedules.  Graphs stay sub-100-node —
the event-driven simulation pays O(m log m) per pulse for the safe
waves, and the *model* numbers these tables pin do not change with n.
"""

from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.bench import print_table, record
from repro.congest import make_schedule
from repro.core import SUM, PASolver, solve_pa
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_connected,
    with_distinct_weights,
)

#: (label, schedule factory) — seeded replayably, one instance per run.
SCHEDULES = [
    ("sync (delay-0)", lambda: make_schedule("sync")),
    ("random d<=4", lambda: make_schedule("random", seed=5, max_delay=4)),
    ("slow-edge 25%/d8", lambda: make_schedule(
        "slow-edge", seed=9, slow_fraction=0.25, slow_delay=8)),
    ("fifo d<=4", lambda: make_schedule("fifo", seed=5, max_delay=4)),
]


def _overhead_totals(session):
    ledger = session.async_overhead
    time_units = sum(p.rounds for p in ledger.phases())
    control = sum(p.messages for p in ledger.phases())
    max_skew = max(
        (o.max_skew for o in session.solver.engine.overhead_log), default=0
    )
    return time_units, control, max_skew


def test_pa_schedules():
    """One PA solve under every schedule: invariant model, measured tax."""
    from repro import PASession

    net = grid_2d(8, 8)
    partition = bfs_ball_partition(net, target_size=12, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]

    def experiment():
        rows = []
        data = {}
        sync = solve_pa(net, partition, values, SUM, seed=7)
        rows.append(
            ("synchronous engine", sync.rounds, sync.messages, "-", "-", "-")
        )
        for label, make in SCHEDULES:
            session = PASession(
                net, solver=PASolver(net, seed=7, schedule=make())
            )
            setup = session.prepare(partition)
            res = session.solve(setup, values, SUM)
            res.ledger.merge(session.tree_ledger, prefix="tree:")
            assert res.aggregates == sync.aggregates
            time_units, control, skew = _overhead_totals(session)
            if label.startswith("sync"):
                assert (res.rounds, res.messages) == (sync.rounds, sync.messages)
                assert skew == 0
                data.update(
                    rounds=res.rounds, messages=res.messages,
                    time_units_delay0=time_units,
                    control_messages_delay0=control,
                )
            data["max_skew"] = max(data.get("max_skew", 0), skew)
            rows.append(
                (label, res.rounds, res.messages, time_units, control, skew)
            )
        data["rows"] = rows
        return data

    data = experiment()
    print_table(
        "E-async/PA: 8x8 grid, BFS-ball parts, one SUM per schedule",
        ["schedule", "rounds", "messages", "time-units", "ctrl msgs",
         "max skew"],
        data["rows"],
    )
    record(
        rounds=data["rounds"], messages=data["messages"],
        time_units_delay0=data["time_units_delay0"],
        control_messages_delay0=data["control_messages_delay0"],
        max_skew=data["max_skew"],
    )


def test_mst_schedules():
    """Full Boruvka MST under every schedule: same tree, same ledger."""
    net = with_distinct_weights(random_connected(48, 0.07, seed=12), seed=4)
    oracle = frozenset(kruskal_mst(net))

    def experiment():
        rows = []
        data = {}
        sync = minimum_spanning_tree(net, seed=3)
        assert sync.output == oracle
        rows.append(
            ("synchronous engine", sync.rounds, sync.messages, "-", "-", "-")
        )
        for label, make in SCHEDULES:
            from repro import PASession

            session = PASession(
                net, solver=PASolver(net, seed=3, schedule=make())
            )
            res = minimum_spanning_tree(net, seed=3, session=session)
            assert res.output == oracle
            time_units, control, skew = _overhead_totals(session)
            if label.startswith("sync"):
                assert (res.rounds, res.messages) == (sync.rounds, sync.messages)
                data.update(
                    rounds=res.rounds, messages=res.messages,
                    time_units_delay0=time_units,
                    control_messages_delay0=control,
                )
            data["max_skew"] = max(data.get("max_skew", 0), skew)
            rows.append(
                (label, res.rounds, res.messages, time_units, control, skew)
            )
        data["rows"] = rows
        return data

    data = experiment()
    print_table(
        "E-async/MST: n=48 random graph, Boruvka over PA per schedule",
        ["schedule", "rounds", "messages", "time-units", "ctrl msgs",
         "max skew"],
        data["rows"],
    )
    record(
        rounds=data["rounds"], messages=data["messages"],
        time_units_delay0=data["time_units_delay0"],
        control_messages_delay0=data["control_messages_delay0"],
        max_skew=data["max_skew"],
    )
