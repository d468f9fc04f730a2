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
from repro.congest import SynchronousSchedule
from repro.algorithms import minimum_spanning_tree, verify_bipartiteness
from repro.core import SUM, claim_bfs, solve_pa
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.obs import Tracer, diff, explain, use_tracer

from oracles import TwinEngine

FALLBACK_REASONS = {
    "none_value", "non_int", "overflow", "unsupported_agg", "mixed_shape",
}

#: (label, net -> PASolver kwargs): the scalar twins, the kernels, the
#: kernels under the delay-0 synchronizer.
ENGINES = [
    ("scalar", lambda net: {"engine": TwinEngine(net)}),
    ("array", lambda net: {}),
    ("async", lambda net: {"schedule": SynchronousSchedule()}),
]


def _solve(workload, kwargs, mode="randomized", seed=7):
    """solve_pa on a solver built here, so its tree phases are traced."""
    net, partition, values = workload
    solver = PASolver(net, mode=mode, seed=seed, **kwargs(net))
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


@pytest.mark.parametrize("label,kwargs", ENGINES, ids=[e[0] for e in ENGINES])
@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_trace_replays_pa_ledger(workload, label, kwargs, mode, seed):
    off = _solve(workload, kwargs, mode=mode, seed=seed)

    tracer = Tracer()
    with use_tracer(tracer):
        on = _solve(workload, kwargs, mode=mode, seed=seed)

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
            _solve(workload, ENGINES[0][1], mode=mode, seed=seed)
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
    # integer PA declines no kernel, on any engine
    assert _check_fallbacks(tracer, label) == []


def _check_fallbacks(tracer, label):
    """A declined kernel dispatch is an instant naming a phase that was
    then charged, with a known reason; the scalar engine never dispatches
    (the async engine runs the kernels)."""
    fallbacks = [
        e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
    ]
    charged = {e["name"] for e in tracer.ledger_events("main")}
    for args in fallbacks:
        assert args["phase"] in charged
        assert args["reason"] in FALLBACK_REASONS
    if label == "scalar":
        assert fallbacks == []
    return fallbacks


def _dispatch_run(net, kwargs):
    """A verification run on top of PA, plus a claim BFS whose token is no
    int, on one traced solver; returns the run, the BFS and the tracer."""
    subgraph = [edge for i, edge in enumerate(net.edges) if i % 4]
    tracer = Tracer()
    with use_tracer(tracer):
        solver = PASolver(net, seed=3, **kwargs(net))
        res = verify_bipartiteness(
            net, subgraph, seed=3, session=PASession(net, solver=solver)
        )
        # a claim token that is no int: the BFS declines to its scalar twin
        bfs = claim_bfs(
            solver.engine, net, {0: ("tok", 7)}, res.ledger, name="odd_bfs"
        )
    return res, bfs, tracer


@pytest.mark.parametrize("label,kwargs", ENGINES, ids=[e[0] for e in ENGINES])
def test_every_dispatch_declines_on_the_trace(workload, label, kwargs):
    """Claim BFS, flood-min, CoreFast claim, annotation and the waves go
    through the same seam as broadcast / convergecast: a verification run
    on top of PA replays, and whatever it declines is on its trace."""
    net = workload[0]
    res, bfs, tracer = _dispatch_run(net, kwargs)
    assert res.output is True and bfs.token_of[net.n - 1] == ("tok", 7)
    assert _event_totals(tracer) == (res.rounds, res.messages)
    fallbacks = _check_fallbacks(tracer, label)
    # the H-restricted BFS states its edges as a mask: it runs on the kernel
    assert "bip_h_bfs" not in {args["phase"] for args in fallbacks}
    if label == "array":
        assert {"phase": "odd_bfs", "reason": "non_int"} in fallbacks
    if label == "async":
        # the async engine declines exactly where the array engine does
        array_fallbacks = _check_fallbacks(
            _dispatch_run(net, ENGINES[1][1])[2], "array"
        )
        assert fallbacks == array_fallbacks


@pytest.mark.parametrize("label,kwargs", ENGINES, ids=[e[0] for e in ENGINES])
def test_identical_seed_traces_diff_to_zero(workload, label, kwargs):
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with use_tracer(tracer):
            _solve(workload, kwargs)
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
