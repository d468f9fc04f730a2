"""Replay exactness: a trace reproduces the run's ledger to the unit.

The acceptance property of the tracing layer, scoped to fault-free runs
(tainted recovery attempts are charged to the ledger that first sees
them, so a fault-injecting driver's main totals are re-attributions):

* tracing off vs on: the ledger is bit-for-bit identical;
* tracing on: summing the main-stream "ledger" instants equals the
  run's total rounds and messages exactly — for every engine, mode and
  seed, including runs that re-attribute costs via ``merge`` (the
  trace-once rule: ``charge`` emits, ``record``/``merge`` never do);
* tracing on: how the run went is the same on every engine — the scalar
  and array loops emit one per-phase (tick, messages, bits, activations)
  counter series and the same ``fast_forward`` instants, the delay-0
  async engine the same per-pulse message series;
* two identical-seed runs' traces diff to zero drift.
"""

import pytest

from repro import PASession, PASolver
from repro.congest import CostLedger, SynchronousSchedule
from repro.congest.arrays import KernelDecline
from repro.algorithms import minimum_spanning_tree, verify_bipartiteness
from repro.core import SUM, XOR, claim_bfs, solve_pa
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.obs import Tracer, diff, explain, use_tracer

from twins import twin_phases

FALLBACK_REASONS = {
    "none_value", "non_int", "overflow", "unsupported_agg", "mixed_shape",
}

#: label -> PASolver kwargs: the scalar twins (under ``twin_phases``),
#: the kernels, the kernels under the delay-0 synchronizer.
ENGINES = {
    "scalar": lambda net: {},
    "array": lambda net: {},
    "async": lambda net: {"schedule": SynchronousSchedule()},
}


def _solve(workload, label, mode="randomized", seed=7):
    """solve_pa on a solver built here, so its tree phases are traced."""
    net, partition, values = workload
    with twin_phases(label == "scalar"):
        solver = PASolver(net, mode=mode, seed=seed, **ENGINES[label](net))
        return solve_pa(
            net, partition, values, SUM, mode=mode, seed=seed, solver=solver
        )


def _phase_log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


def _tick_series(tracer):
    """The synchronous loops' per-tick counters, in emission order."""
    return [
        (e["name"], e["args"]["tick"], e["args"]["messages"],
         e["args"]["bits"], e["args"]["activations"])
        for e in tracer.events if e["ph"] == "C" and "tick" in e["args"]
    ]


def _pulse_series(tracer):
    """The async engine's per-pulse delivered-payload counters."""
    return [
        (e["name"], e["args"]["pulse"], e["args"]["messages"])
        for e in tracer.events if e["ph"] == "C" and "pulse" in e["args"]
    ]


def _fast_forwards(tracer):
    return [e["args"] for e in tracer.events if e["cat"] == "engine.ff"]


def _event_totals(tracer, stream="main"):
    events = tracer.ledger_events(stream)
    return (
        sum(e["args"]["rounds"] for e in events),
        sum(e["args"]["messages"] for e in events),
    )


@pytest.fixture(scope="module")
def workload():
    net = grid_2d(6, 6)
    partition = bfs_ball_partition(net, target_size=9, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]
    return net, partition, values


@pytest.mark.parametrize("label", ENGINES)
@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_trace_replays_pa_ledger(workload, label, mode, seed):
    off = _solve(workload, label, mode=mode, seed=seed)

    tracer = Tracer()
    with use_tracer(tracer):
        on = _solve(workload, label, mode=mode, seed=seed)

    # tracing never perturbs the run
    assert on.aggregates == off.aggregates
    assert _phase_log(on.ledger) == _phase_log(off.ledger)
    # the trace replays the ledger exactly
    assert _event_totals(tracer) == (on.rounds, on.messages)
    # ... and tells the same run as the scalar loop's trace does
    scalar = tracer
    if label != "scalar":
        scalar = Tracer()
        with use_tracer(scalar):
            _solve(workload, "scalar", mode=mode, seed=seed)
    ticks = _tick_series(scalar)
    assert len({name for name, *_ in ticks}) > 5
    if label == "async":
        # a pulse nothing was delivered into has no sample
        assert _pulse_series(tracer) == [
            (name, tick, msgs) for name, tick, msgs, _b, _a in ticks if msgs
        ]
        # the synchronizer tax is on its own stream, never in main
        tax = _event_totals(tracer, "async_overhead")
        assert tax[0] > 0 and tax[1] > 0
    else:
        assert _tick_series(tracer) == ticks
        assert _fast_forwards(tracer) == _fast_forwards(scalar)
    # integer PA folds every value on columns, on any engine
    assert _check_fallbacks(tracer) == []


def _check_fallbacks(tracer):
    """The value store's list folds: each an instant naming a phase that
    was then charged, with a known reason."""
    fallbacks = [
        e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
    ]
    charged = {e["name"] for e in tracer.ledger_events("main")}
    for args in fallbacks:
        assert args["phase"] in charged
        assert args["reason"] in FALLBACK_REASONS
    return fallbacks


def _dispatch_run(workload, label):
    """A verification run on top of PA and a batched ``(SUM, XOR)`` solve
    on one traced session; returns both results and the tracer."""
    net, partition, values = workload
    subgraph = [edge for i, edge in enumerate(net.edges) if i % 4]
    tracer = Tracer()
    with use_tracer(tracer), twin_phases(label == "scalar"):
        session = PASession(
            net, batch=True,
            solver=PASolver(net, seed=3, **ENGINES[label](net)),
        )
        res = verify_bipartiteness(net, subgraph, seed=3, session=session)
        batch = session.solve_many(
            session.prepare(partition), [(values, SUM), (values, XOR)],
            phase_prefix="mixed",
        )
    return res, batch, tracer


@pytest.mark.parametrize("label", ENGINES)
def test_every_dispatch_declines_on_the_trace(workload, label):
    """Claim BFS, flood-min, CoreFast claim, annotation and the waves go
    through the same seam as broadcast / convergecast: a verification run
    on top of PA and a batched solve replay, and the one list the value
    store folds — the XOR factor — is the only fallback on the trace."""
    res, batch, tracer = _dispatch_run(workload, label)
    assert res.output is True
    assert _event_totals(tracer) == (
        res.rounds + batch.ledger.rounds,
        res.messages + batch.ledger.messages,
    )
    assert _check_fallbacks(tracer) == [
        {"phase": "mixed_reverse", "reason": "unsupported_agg",
         "factor": "xor"},
    ]


@pytest.mark.parametrize("label", ["array", "async"])
def test_a_token_no_column_holds_raises(workload, label):
    """A claim BFS whose token is no int raises, naming its phase."""
    net = workload[0]
    engine = PASolver(net, seed=3, **ENGINES[label](net)).engine
    with pytest.raises(KernelDecline, match="^odd_bfs: non_int$"):
        claim_bfs(engine, net, {0: ("tok", 7)}, CostLedger(), name="odd_bfs")


@pytest.mark.parametrize("label", ENGINES)
def test_identical_seed_traces_diff_to_zero(workload, label):
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with use_tracer(tracer):
            _solve(workload, label)
        tracers.append(tracer)
    assert diff(explain(tracers[0].events), explain(tracers[1].events)) == []


def test_trace_replays_through_merge_without_double_counting():
    """merge() re-attributes traced phases; event sums must not double."""
    net = grid_2d(6, 6)
    partition = bfs_ball_partition(net, target_size=9, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]

    tracer = Tracer()
    with use_tracer(tracer):
        session = PASession(net, seed=7)
        setup = session.prepare(partition)
        res = session.solve(setup, values, SUM)
        res.ledger.merge(session.tree_ledger, prefix="tree:")
    assert _event_totals(tracer) == (res.rounds, res.messages)


def test_trace_replays_mst_ledger():
    """A full pipeline (Boruvka over PA, nested merges) still replays."""
    net = with_distinct_weights(random_connected(24, 0.12, seed=5), seed=2)
    tracer = Tracer()
    with use_tracer(tracer):
        res = minimum_spanning_tree(net, seed=3)
    assert _event_totals(tracer) == (res.rounds, res.messages)
    # the MST's tuple-valued solves fold their keys on the wave kernels'
    # columns and its OR termination convergecast folds 0 / 1 ints on the
    # kernel: the trace notes no fallback at all
    report = explain(tracer.events)
    assert not [
        label for label in report.degraded
        if label.startswith("kernel fallback")
    ]
    # one ``pa.route`` instant a solve: a learned one is a charged token
    # wave (its wire count the wave's messages) with a wire reversal and a
    # forest replay — 2 wire + forest; a reused one is a solve without a
    # wave — one all-reduce, twice the forest's size
    charged = tracer.ledger_events("main")
    waves = [e for e in charged if e["name"].endswith("_wave")]
    finals = [
        e for e in charged if e["name"].endswith(("_replay", "_allreduce"))
    ]
    learned, wire, forest, reused = report.routes
    assert learned == len(waves) > 0
    assert wire == sum(e["args"]["messages"] for e in waves)
    assert learned + reused == len(finals)
    assert reused == sum(e["name"].endswith("_allreduce") for e in finals) > 0
    reused_forest = sum(
        e["args"]["forest"] for e in tracer.events
        if e["name"] == "pa.route" and e["args"]["outcome"] == "reused"
    )
    reversals = [e for e in charged if e["name"].endswith("_reverse")]
    assert forest < wire
    assert 2 * wire + forest + 2 * reused_forest == sum(
        e["args"]["messages"] for e in waves + reversals + finals
    )


def test_trace_replays_random_graph_partitions():
    net = random_connected(30, 0.1, seed=9)
    partition = random_connected_partition(net, 5, seed=9)
    values = list(range(net.n))
    tracer = Tracer()
    with use_tracer(tracer):
        res = solve_pa(net, partition, values, SUM, seed=1)
    assert _event_totals(tracer) == (res.rounds, res.messages)
