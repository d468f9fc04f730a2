"""RecoveryDriver: heartbeat detection, self-healing PA/MST, accounting."""

import pytest

from repro.congest import (
    AsyncEngine,
    CrashEvent,
    FaultPlan,
    MessageLoss,
    SynchronousSchedule,
)
from repro.core import PASolver, SUM, solve_pa
from repro.algorithms.mst import minimum_spanning_tree
from repro.analysis.reference import kruskal_mst
from repro.graphs import random_connected, random_connected_partition, with_distinct_weights
from repro.obs import Tracer, use_tracer
from repro.runtime import (
    HeartbeatConfig,
    PASession,
    RecoveryDriver,
    RecoveryExhaustedError,
)


def _delay0_solver(net, seed):
    """A fault-free reference solver on the delay-0 asynchronous engine."""
    return PASolver(net, seed=seed, schedule=SynchronousSchedule())


def _phase_log(ledger):
    return [(p.name, p.rounds, p.messages, p.ticks) for p in ledger.phases()]


@pytest.fixture
def workload():
    net = with_distinct_weights(random_connected(24, 0.12, seed=9), seed=9)
    part = random_connected_partition(net, 4, seed=9)
    values = [(v * 7 + 3) % 101 for v in range(net.n)]
    return net, part, values


def test_heartbeat_config_validation():
    with pytest.raises(ValueError):
        HeartbeatConfig(window=1)
    with pytest.raises(ValueError):
        HeartbeatConfig(window=4, timeout=3)  # timeout + 2 > window
    cfg = HeartbeatConfig(window=8, interval=2, timeout=3)
    assert cfg.window == 8


# ---------------------------------------------------------------------------
# The no-fault path is bit-for-bit a plain run
# ---------------------------------------------------------------------------

def test_no_fault_pa_is_bit_for_bit(workload):
    net, part, values = workload
    ref = solve_pa(
        net, part, values, SUM, seed=5,
        solver=_delay0_solver(net, 5),
    )
    driver = RecoveryDriver(net, seed=5)
    res = driver.solve_pa(part, values, SUM)
    assert res.aggregates == ref.aggregates
    assert res.value_at_node == ref.value_at_node
    assert _phase_log(res.ledger) == _phase_log(ref.ledger)
    assert driver.stats.attempts == 1
    assert driver.stats.tainted_attempts == 0
    assert driver.stats.heartbeat_windows == 0
    assert driver.recovery_overhead.phases() == ()
    assert driver.engine.fault_log == []


def test_no_fault_mst_is_bit_for_bit(workload):
    net, _part, _values = workload
    ref = minimum_spanning_tree(
        net, seed=7, session=PASession(net, solver=_delay0_solver(net, 7))
    )
    driver = RecoveryDriver(net, seed=7)
    res = driver.minimum_spanning_tree()
    assert res.output == ref.output
    assert _phase_log(res.ledger) == _phase_log(ref.ledger)
    assert driver.stats.attempts == 1
    assert driver.recovery_overhead.phases() == ()


# ---------------------------------------------------------------------------
# Heartbeat detection
# ---------------------------------------------------------------------------

def test_heartbeat_suspects_crashed_node_then_clears(workload):
    net, _part, _values = workload
    plan = FaultPlan(crashes=(CrashEvent(node=5, at=2, recover_at=30),))
    driver = RecoveryDriver(net, faults=plan)
    clean, suspects = driver.run_heartbeat_window()
    assert not clean
    assert 5 in suspects
    # Keep running windows: the global clock walks past recover_at and a
    # window eventually comes back clean.
    for _ in range(16):
        clean, suspects = driver.run_heartbeat_window()
        if clean:
            break
    assert clean and not suspects
    assert driver.stats.heartbeat_windows >= 2
    names = [p.name for p in driver.recovery_overhead.phases()]
    assert names and all(n == "recovery:heartbeat" for n in names)


def test_clean_network_heartbeat_is_clean(workload):
    net, _part, _values = workload
    driver = RecoveryDriver(net)
    clean, suspects = driver.run_heartbeat_window()
    assert clean and not suspects


# ---------------------------------------------------------------------------
# Self-healing PA and MST
# ---------------------------------------------------------------------------

def test_pa_recovers_from_a_crash_with_identical_output(workload):
    net, part, values = workload
    ref = solve_pa(
        net, part, values, SUM, seed=5,
        solver=_delay0_solver(net, 5),
    )
    plan = FaultPlan(crashes=(CrashEvent(node=3, at=5, recover_at=60),))
    driver = RecoveryDriver(net, faults=plan, seed=5)
    res = driver.solve_pa(part, values, SUM)
    assert res.aggregates == ref.aggregates
    assert res.value_at_node == ref.value_at_node
    stats = driver.stats
    assert stats.attempts >= 2 and stats.tainted_attempts >= 1
    assert stats.reelections >= 1 and stats.heartbeat_windows >= 1
    # Recovery tax is real and strictly segregated: the main ledger
    # carries no attempt/heartbeat/re-election phases.
    recovery_names = [p.name for p in driver.recovery_overhead.phases()]
    assert any(n == "recovery:heartbeat" for n in recovery_names)
    assert any(n.startswith("attempt0:") for n in recovery_names)
    main_names = [p.name for p in res.ledger.phases()]
    assert not any(
        n.startswith(("attempt", "recovery:", "reelect", "alg9_pick"))
        for n in main_names
    )
    assert sum(p.rounds for p in driver.recovery_overhead.phases()) > 0


def test_mst_recovers_from_two_crashes(workload):
    net, _part, _values = workload
    plan = FaultPlan(crashes=(
        CrashEvent(node=2, at=6, recover_at=70),
        CrashEvent(node=9, at=12, recover_at=55),
    ))
    driver = RecoveryDriver(net, faults=plan, seed=7)
    res = driver.minimum_spanning_tree()
    assert res.output == frozenset(kruskal_mst(net))
    assert driver.stats.tainted_attempts >= 1
    assert driver.stats.reelections >= 1
    assert sum(p.messages for p in driver.recovery_overhead.phases()) > 0


def _died_tainted_clean():
    """A network and plan under which attempt 0 dies, attempt 1 completes
    tainted and attempt 2 is clean — for MST (randomized) and for PA
    (deterministic) alike.  The plan's seed was re-chosen (1009 before)
    when the token wave began to hand a token on in the tick a node gains
    it: its shorter waves moved MST's attempt 1 against the plan's global
    pulses, and it died instead of completing tainted.  It was re-chosen
    again (1002 before) when a reused solve became one all-reduce: its
    shorter solves moved MST's attempt 1 past the outage, and it came out
    clean."""
    net = with_distinct_weights(random_connected(20, 0.15, seed=1), seed=6)
    plan = FaultPlan.seeded(
        1012, 20, crashes=1, recover=True, crash_window=(1, 400),
        outage=(2, 6), partition=True, partition_window=(3, 9),
    )
    return net, plan


def test_tainted_mst_attempt_charges_its_tree_election_once():
    """An MST result's ledger already carries the tree ledger under
    ``tree:``; the driver used to merge it into ``recovery_overhead`` a
    second time (5 rounds / 255 messages over the attempt's cost)."""
    net, plan = _died_tainted_clean()
    driver = RecoveryDriver(net, faults=plan, seed=7)
    res = driver.minimum_spanning_tree()
    assert res.output == frozenset(kruskal_mst(net))
    assert (driver.stats.attempts, driver.stats.tainted_attempts) == (3, 2)
    recovery = driver.recovery_overhead
    tree = [
        (p.name, p.rounds, p.messages)
        for p in recovery.phases() if ":tree:" in p.name
    ]
    assert tree == [
        ("attempt1:tree:leader_election", 4, 94),
        ("attempt1:tree:child_ack", 1, 19),
    ]
    # (292, 3717) and (124, 341, 2936) before a later phase's neighbor
    # exchange became the session's engine-run ``part_exchange``: a
    # relabelled node now tells only its neighbors outside its old fragment.
    # (292, 3642) and (124, 341, 2806) before a build's last verification
    # became its setup's first solve: the clean attempt's five verified
    # phases each run one ``moe_allreduce`` instead of wave, reversal and
    # replay (35 rounds, 402 messages), and the shorter attempts meet the
    # plan's global pulses in other phases.
    assert (recovery.rounds, recovery.messages) == (258, 3273)
    main = res.ledger
    assert (len(main.phases()), main.rounds, main.messages) == (114, 306, 2404)


@pytest.mark.parametrize("opt_ins", [{}, {"reuse": True}])
@pytest.mark.parametrize("victim", [0, 2, 12])
def test_crash_between_two_solves_on_one_setup(victim, opt_ins):
    """Only a setup's first solve runs a token wave, so no coverage scan
    meets a node that went down after the route was learned: the
    all-reduce itself has to notice.  Crash a node at the first pulse of
    a phase's second solve — the attempt dies on a part without a result
    or on members the pass never reached (or, where the victim had
    nothing to send, completes tainted), never returns short aggregates,
    and the retry is Kruskal's tree."""
    net, _plan = _died_tainted_clean()
    # The second solve of phase 3: fragments of several nodes by then.
    routed = "phase3_relabel_allreduce"
    clean = RecoveryDriver(net, faults=FaultPlan(), seed=7)
    clean.minimum_spanning_tree(**opt_ins)
    log = clean.engine.overhead_log
    names = [rec.name for rec in log]
    assert not any(
        name.startswith(routed[: -len("allreduce")]) and name.endswith("_wave")
        for name in names
    )
    base = sum(rec.pulses for rec in log[: names.index(routed)])

    plan = FaultPlan(crashes=(
        CrashEvent(node=victim, at=base + 1, recover_at=base + 12),
    ))
    driver = RecoveryDriver(net, faults=plan, seed=7)
    tracer = Tracer()
    with use_tracer(tracer):
        res = driver.minimum_spanning_tree(**opt_ins)
    assert res.output == frozenset(kruskal_mst(net))
    outcomes = [
        e["args"]["outcome"] for e in tracer.events
        if e["name"] == "recovery.attempt"
    ]
    assert outcomes[0] in ("died", "tainted") and outcomes[-1] == "clean"
    reports = driver.engine.fault_log
    hit = next(k for k, report in enumerate(reports) if report.affected)
    # Everything up to the routed solve ran as in the fault-free attempt.
    assert [r.phase for r in reports[:hit]] == names[:hit]
    assert hit >= names.index(routed)


def test_a_dropped_replay_message_is_a_died_attempt(workload):
    """The replay is the last pass and the only one nothing runs after: a
    result packet lost on the forest strands its subtree, and the solve
    raises on the count of members reached instead of handing the
    stranded ones ``None`` (an attempt that used to complete tainted).
    Lose the payloads of the replay's second pulse, computed from a
    fault-free run's overhead log.  The parts are no wider than D, so no
    verification learns the route first and the solve has a replay."""
    net, _part, values = workload
    part = random_connected_partition(net, 7, seed=9)
    clean = RecoveryDriver(net, faults=FaultPlan(), seed=5)
    ref = clean.solve_pa(part, values, SUM)
    log = clean.engine.overhead_log
    names = [rec.name for rec in log]
    base = sum(rec.pulses for rec in log[: names.index("pa_replay")])

    plan = FaultPlan(losses=(
        MessageLoss(rate=1.0, start=base + 2, end=base + 3),
    ))
    driver = RecoveryDriver(net, faults=plan, seed=5)
    tracer = Tracer()
    with use_tracer(tracer):
        res = driver.solve_pa(part, values, SUM)
    assert res.aggregates == ref.aggregates
    assert res.value_at_node == ref.value_at_node
    assert [
        e["args"]["outcome"] for e in tracer.events
        if e["name"] == "recovery.attempt"
    ] == ["died", "clean"]
    hit = [r for r in driver.engine.fault_log if r.affected]
    assert [r.phase for r in hit] == ["pa_replay"]
    assert hit[0].dropped_payloads >= 1
    # The attempt ran every phase of the fault-free one before it died.
    assert [
        p.name for p in driver.recovery_overhead.phases()
        if p.name.startswith("attempt0:")
    ] == ["attempt0:" + name for name in names]


def _pulse_of(net, phase, occurrence=0):
    """Global pulse at which the ``occurrence``-th run of ``phase`` starts
    in a fault-free MST under the driver (seed 7)."""
    clean = RecoveryDriver(net, faults=FaultPlan(), seed=7)
    clean.minimum_spanning_tree()
    log = clean.engine.overhead_log
    at = [k for k, rec in enumerate(log) if rec.name == phase][occurrence]
    return sum(rec.pulses for rec in log[:at])


def _mst_under(net, plan):
    """One MST attempt on a faulty engine, no driver: what an attempt that
    "completes tainted" would have handed back, and its merge rounds."""
    engine = AsyncEngine(net, faults=plan)
    session = PASession(net, solver=PASolver(net, seed=7, engine=engine))
    tracer = Tracer()
    with use_tracer(tracer):
        result = minimum_spanning_tree(net, seed=7, session=session)
    rounds = [e["args"] for e in tracer.events if e["name"] == "merge.round"]
    return result, rounds, engine


@pytest.mark.parametrize("rate", [1.0, 0.5])
def test_a_lost_target_answer_is_a_fragment_that_stays_put(workload, rate):
    """A fragment joins on what its endpoint *received*: lose the answers
    of the second phase's ``mst_target_exchange`` and the fragments that
    did not hear stay where they are for a round — the tree is still
    Kruskal's, never a wrong join — and under the driver the attempt is
    tainted and recomputed.  At a partial loss rate not every loss seed
    hits an answer that carried a join (the premise): the test runs on
    the first seed from 3 on whose losses do, and there is one."""
    net, _part, _values = workload
    reference = frozenset(kruskal_mst(net))
    _clean, clean_rounds, _engine = _mst_under(net, FaultPlan())
    base = _pulse_of(net, "mst_target_exchange", occurrence=1)
    for seed in range(3, 35):
        plan = FaultPlan(losses=(
            MessageLoss(rate=rate, seed=seed, start=base + 1, end=base + 2),
        ))
        result, rounds, engine = _mst_under(net, plan)
        if rounds[1]["joins"] < clean_rounds[1]["joins"]:
            break
    else:
        pytest.fail(f"no loss seed at rate {rate} hit an answer with a join")
    assert result.output == reference
    hit = [r for r in engine.fault_log if r.affected]
    assert [r.phase for r in hit] == ["mst_target_exchange"]
    assert rounds[0] == clean_rounds[0]
    assert rounds[1]["picks"] == clean_rounds[1]["picks"]
    assert rounds[1]["joins"] < clean_rounds[1]["joins"]
    if rate == 1.0:
        assert rounds[1]["joins"] == 0
        assert rounds[2]["clusters"] == rounds[1]["clusters"]

    driver = RecoveryDriver(net, faults=plan, seed=7)
    tracer = Tracer()
    with use_tracer(tracer):
        res = driver.minimum_spanning_tree()
    assert res.output == reference
    assert [
        e["args"]["outcome"] for e in tracer.events
        if e["name"] == "recovery.attempt"
    ] == ["tainted", "clean"]


@pytest.mark.parametrize("hop", [1, 2, 3])
def test_a_lost_seed_hop_is_a_subtree_that_never_joins(workload, hop):
    """The public seed is delivered, not assumed: a node under a lost
    ``mst_seed`` hop holds no seed, so a fragment whose MOE leaves from it
    never joins — it is joined, or the run gives up on its phase budget;
    it never guesses.  Under the driver that is a tainted or a died
    attempt and Kruskal's tree from the retry."""
    net, _part, _values = workload
    reference = frozenset(kruskal_mst(net))
    base = _pulse_of(net, "mst_seed")
    plan = FaultPlan(losses=(
        MessageLoss(rate=1.0, start=base + hop, end=base + hop + 1),
    ))
    try:
        result, rounds, engine = _mst_under(net, plan)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
    else:
        assert result.output == reference
        assert [r.phase for r in engine.fault_log if r.affected] == ["mst_seed"]

    driver = RecoveryDriver(net, faults=plan, seed=7)
    tracer = Tracer()
    with use_tracer(tracer):
        res = driver.minimum_spanning_tree()
    assert res.output == reference
    outcomes = [
        e["args"]["outcome"] for e in tracer.events
        if e["name"] == "recovery.attempt"
    ]
    assert outcomes[0] in ("died", "tainted") and outcomes[-1] == "clean"
    assert [r.phase for r in driver.engine.fault_log if r.affected] == ["mst_seed"]


def test_both_workloads_trace_their_attempts_alike():
    """One attempt loop: a died, a tainted and a clean attempt emit the
    same ``recovery.attempt`` span arguments whatever the workload, and
    every attempt after the first starts with a ``reelection`` instant."""
    net, plan = _died_tainted_clean()
    part = random_connected_partition(net, 4, seed=9)
    values = [(v * 7 + 3) % 101 for v in range(net.n)]
    runs = {
        "mst": ("randomized", lambda d: d.minimum_spanning_tree()),
        "pa": ("deterministic", lambda d: d.solve_pa(part, values, SUM)),
    }
    for workload, (mode, run) in runs.items():
        driver = RecoveryDriver(net, faults=plan, seed=7, mode=mode)
        tracer = Tracer()
        with use_tracer(tracer):
            run(driver)
        events = [
            (e["name"], e["args"]) for e in tracer.events
            if e["name"] in ("recovery.attempt", "reelection")
        ]
        span = lambda k, outcome: ("recovery.attempt", {
            "attempt": k, "workload": workload, "outcome": outcome,
        })
        assert events == [
            span(0, "died"),
            ("reelection", {"attempt": 1}), span(1, "tainted"),
            ("reelection", {"attempt": 2}), span(2, "clean"),
        ]
        assert driver.stats.reelections == 2


def test_seeded_plan_recovery_converges(workload):
    net, part, values = workload
    ref = solve_pa(
        net, part, values, SUM, seed=1,
        solver=_delay0_solver(net, 1),
    )
    plan = FaultPlan.seeded(1234, net.n, crashes=2, crash_window=(3, 20),
                            outage=(8, 25))
    driver = RecoveryDriver(net, faults=plan, seed=1)
    res = driver.solve_pa(part, values, SUM)
    assert res.aggregates == ref.aggregates
    assert res.value_at_node == ref.value_at_node


def test_permanent_crash_exhausts_the_driver(workload):
    net, part, values = workload
    plan = FaultPlan(crashes=(CrashEvent(node=3, at=2, recover_at=None),))
    driver = RecoveryDriver(
        net, faults=plan, max_attempts=2, max_wait_windows=3
    )
    with pytest.raises(RecoveryExhaustedError) as err:
        driver.solve_pa(part, values, SUM)
    assert err.value.stats.attempts >= 1
    assert err.value.stats.last_suspects == (3,)


def test_genuine_bugs_propagate_when_no_faults_observed(workload):
    net, part, _values = workload
    driver = RecoveryDriver(net)
    with pytest.raises(Exception) as err:
        driver.solve_pa(part, [1, 2], SUM)  # wrong values length: a bug
    assert not isinstance(err.value, RecoveryExhaustedError)
    assert driver.stats.tainted_attempts == 0


def test_driver_rejects_bad_limits(workload):
    net, _part, _values = workload
    with pytest.raises(ValueError):
        RecoveryDriver(net, max_attempts=0)


def test_engine_is_shared_across_attempts(workload):
    # The global pulse clock must advance monotonically through tainted
    # attempts and heartbeat windows — that is what locates the fault
    # plan's windows in time.
    net, part, values = workload
    plan = FaultPlan(crashes=(CrashEvent(node=3, at=5, recover_at=60),))
    driver = RecoveryDriver(net, faults=plan, seed=5)
    assert driver.engine.global_pulse == 0
    driver.solve_pa(part, values, SUM)
    assert driver.engine.global_pulse > 60  # walked past the outage
    assert isinstance(driver.engine, AsyncEngine)
