"""The synchronizer transform against the event engine it replaced.

``AsyncEngine`` runs a phase's synchronous execution and computes the
phase's overhead record and fault report from the pulse record; the
event-calendar engine kept beside the tests (``tests/event_engine.py``)
re-executes every program node by node.  On random graphs of up to 30
nodes, under every schedule kind and every fault kind, PA in both modes
and MST must come out the same on both: outputs, main ledger, overhead
records and fault reports.  Below that, the checks the record decides in
place of the event engine's two timing-dependent errors.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from event_engine import first_divergence
from repro.algorithms import minimum_spanning_tree
from repro.congest import (
    AsyncEngine,
    CostLedger,
    CrashEvent,
    FaultPlan,
    MessageLoss,
    PartitionEvent,
    make_schedule,
)
from repro.congest.engine import ArrayProgram, FunctionProgram
from repro.core import ROOT, SUM, PASolver, RootedForest, solve_pa
from repro.core.array_kernels import BroadcastArrayKernel
from repro.core.treeops import run_broadcast
from repro.graphs import (
    path_graph,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.runtime import PASession

from twins import BroadcastProgram

SCHEDULES = ("sync", "random", "fifo", "slow-edge")
FAULTS = (None, "crash", "loss", "partition")
WORKLOADS = ("pa-randomized", "pa-deterministic", "mst")


def _plan(kind, n, seed):
    if kind == "crash":
        at = 2 + seed % 7
        return FaultPlan(crashes=(
            CrashEvent(node=seed % n, at=at, recover_at=at + 5 + seed % 11),
        ))
    if kind == "loss":
        return FaultPlan(losses=(
            MessageLoss(rate=0.2, seed=seed, start=2, end=20 + seed % 20),
        ))
    if kind == "partition":
        side = frozenset(v for v in range(n) if (7 * v + seed) % 4 == 0)
        at = 2 + seed % 6
        return FaultPlan(partitions=(
            PartitionEvent(at=at, heal_at=at + 4 + seed % 9, side=side or {0}),
        ))
    return None


def _workload(kind, net, seed):
    """``engine -> (outputs, main phase log)`` for one workload kind."""
    partition = random_connected_partition(net, max(2, net.n // 6), seed=seed)
    values = [(v * 7 + 3) % 101 for v in range(net.n)]

    def run(engine):
        if kind == "mst":
            solver = PASolver(net, seed=seed, engine=engine)
            res = minimum_spanning_tree(
                net, seed=seed, session=PASession(net, solver=solver)
            )
            outputs = sorted(res.output)
        else:
            mode = kind.split("-")[1]
            res = solve_pa(
                net, partition, values, SUM, mode=mode, seed=seed,
                solver=PASolver(net, mode=mode, seed=seed, engine=engine),
            )
            outputs = (res.aggregates, res.value_at_node)
        return outputs, [
            (p.name, p.rounds, p.messages, p.ticks, p.bits)
            for p in res.ledger.phases()
        ]

    return run


@given(
    n=st.integers(6, 30),
    seed=st.integers(0, 2**16),
    schedule=st.sampled_from(SCHEDULES),
    fault=st.sampled_from(FAULTS),
    workload=st.sampled_from(WORKLOADS),
    arrays=st.booleans(),
)
@settings(
    max_examples=24, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_transform_matches_the_event_engine(
    n, seed, schedule, fault, workload, arrays
):
    net = with_distinct_weights(random_connected(n, 0.15, seed=seed), seed=seed)
    plan = _plan(fault, n, seed)
    message = first_divergence(
        _workload(workload, net, seed % 97), net,
        lambda: make_schedule(
            schedule, seed=seed, max_delay=1 + seed % 6, slow_delay=2 + seed % 8
        ),
        faults=plan,
        twins=not arrays,
    )
    assert message is None, message


def test_the_array_kernels_keep_the_records():
    """A fault-free async solver on the array kernels: every record the
    event engine writes, and the scalar twins' main ledger."""
    net = with_distinct_weights(random_connected(24, 0.15, seed=5), seed=5)
    for kind in WORKLOADS:
        message = first_divergence(
            _workload(kind, net, 5), net,
            lambda: make_schedule("random", seed=3),
        )
        assert message is None, (kind, message)


def test_the_fifo_clamp_binds_as_in_the_event_engine():
    """Every node speaks to every neighbor for six pulses on a path of
    three: under this FIFO schedule a pulse-2 payload would overtake its
    edge's pulse-1 payload, so the clamp moves the record away from the
    same delays without it (the random schedule of the same seed), and
    the event engine agrees with the clamped record."""
    net = path_graph(3)

    def start(ctx):
        for v in range(net.n):
            for w in net.neighbors[v]:
                ctx.send(v, w, (v,))

    def step(ctx, node, inbox):
        if ctx.tick < 6:
            for w in net.neighbors[node]:
                ctx.send(node, w, (node,))

    def chatter(engine):
        stats = engine.run(FunctionProgram("chatter", start, step), max_ticks=8)
        return stats.rounds, stats.messages

    records = {}
    for kind in ("fifo", "random"):
        def schedule(kind=kind):
            return make_schedule(kind, seed=0, max_delay=4)

        assert first_divergence(chatter, net, schedule) is None
        engine = AsyncEngine(net, schedule())
        chatter(engine)
        records[kind] = engine.overhead_log
    assert records["fifo"] != records["random"]


def _path_broadcast():
    net = path_graph(4)
    return net, RootedForest(net, [ROOT, 0, 1, 2]), {0: 7}


def test_a_faulty_engine_runs_the_kernels():
    """A fault plan masks the array loop as it does the scalar one: an
    engine holding one runs the broadcast kernel, and what the crash
    drops never arrives — node 1 is down from pulse 2, so its packet to
    node 2 is dropped (and counted), and nodes 2 and 3 hear nothing."""
    plan = FaultPlan(crashes=(CrashEvent(node=1, at=2),))
    net, forest, values = _path_broadcast()
    faulty = AsyncEngine(net, faults=plan)
    program = run_broadcast(faulty, forest, values, CostLedger())
    assert program.received == {0: 7, 1: 7}
    assert program.received_at([0, 1, 2, 3]).tolist() == [7, 7, None, None]
    (report,) = faulty.fault_log
    assert report.dropped_payloads == report.delivery_timeouts == 1


def test_an_array_program_under_a_fault_plan_is_its_twin():
    """An array program handed straight to a faulty engine: the ledger,
    ``received`` and fault report of its scalar twin on an
    ``AsyncEngine`` under the same plan."""
    plan = FaultPlan(crashes=(CrashEvent(node=1, at=2),))
    net, forest, values = _path_broadcast()
    runs = []
    for engine, program in (
        (AsyncEngine(net, faults=plan), BroadcastArrayKernel(forest, values)),
        (AsyncEngine(net, faults=plan), BroadcastProgram(forest, values)),
    ):
        stats = engine.run(program, max_ticks=8)
        runs.append((stats, program.received, engine.fault_log))
    assert runs[0] == runs[1]
    assert runs[0][2][0].dropped_payloads == 1


def test_the_kernels_under_every_fault_kind_match_the_event_engine(
    monkeypatch,
):
    """Every fault kind, both PA modes and MST, eight seeds each, on the
    kernels: no divergence from the event engine, and array programs did
    run under the plans."""
    ran = []
    run = AsyncEngine.run

    def spy(self, program, *args, **kwargs):
        if self.faults is not None and isinstance(program, ArrayProgram):
            ran.append(program)
        return run(self, program, *args, **kwargs)

    monkeypatch.setattr(AsyncEngine, "run", spy)
    for fault in FAULTS[1:]:
        for workload in WORKLOADS:
            for seed in range(8):
                n = 10 + 7 * seed % 20
                net = with_distinct_weights(
                    random_connected(n, 0.15, seed=seed), seed=seed
                )
                message = first_divergence(
                    _workload(workload, net, seed), net,
                    lambda: make_schedule("random", seed=seed),
                    faults=_plan(fault, n, seed),
                )
                assert message is None, (fault, workload, seed, message)
    assert ran


# ---------------------------------------------------------------------------
# Checks the record decides
# ---------------------------------------------------------------------------
def _woken_zero(step):
    def start(ctx):
        ctx.wake(0)

    return FunctionProgram("probe", start, step)


def test_a_send_by_a_node_that_did_not_activate_is_refused():
    """Node 0, at pulse 1, sends on behalf of node 2, which has no
    activation at pulse 1: there is no pulse-1 entry to time it from."""

    def step(ctx, node, inbox):
        if ctx.tick == 1:
            ctx.send(2, 3, ("x",))

    with pytest.raises(RuntimeError, match="node 2 sent at pulse 1 without activating"):
        AsyncEngine(path_graph(4)).run(_woken_zero(step), max_ticks=5)


def test_a_timer_for_a_passed_pulse_is_refused():
    """A timer planted on the wheel for pulse 1 while the run is at pulse
    2 (``wake_at`` refuses it; the wheel itself does not): its target
    has passed that pulse, and the plain loop would run pulse 1 again."""

    def step(ctx, node, inbox):
        if ctx.tick == 1:
            ctx.wake(0)
        elif ctx.tick == 2:
            ctx._timers.setdefault(1, set()).add(3)

    with pytest.raises(RuntimeError, match="timer for pulse 1 was set at pulse 2"):
        AsyncEngine(path_graph(4)).run(_woken_zero(step), max_ticks=5)
