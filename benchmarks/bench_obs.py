"""E-obs (PR 8): tracing is free when off and exact when on.

Two contracts pin the observability layer to the repo's
ledger-is-ground-truth rule:

1. **Zero cost when off.**  With the default :data:`~repro.obs.NULL_TRACER`
   installed, every hook point is one ``current_tracer()`` fetch plus one
   ``.enabled`` check per *phase* (the per-tick paths receive
   ``tracer=None`` and skip all event work).  The ledger — phase names,
   rounds, messages, ticks, bits — is bit-for-bit identical with tracing
   on or off, on the synchronous and the async engine.  Asserted here
   every run.

2. **Exact when on.**  A recorded trace *replays* the ledger: summing the
   main-stream "ledger" instants reproduces the run's total rounds and
   messages exactly, on both engines (the scalar twins' case is
   ``tests/obs/test_replay.py``'s).  This is
   what makes ``python -m repro.obs diff`` a per-phase regression gate
   rather than a sampling profiler.

What tracing costs in wall time is ``obs.trace_overhead_ratio`` in
``benchmarks/perf`` (every workload, ``--trace 1``), not a number
recorded here.
"""

from repro.bench import print_table, record
from repro.congest import SynchronousSchedule
from repro.core import SUM, PASolver, solve_pa
from repro.graphs import bfs_ball_partition, grid_2d
from repro.obs import NULL_TRACER, Tracer, use_tracer

#: (label, PASolver kwargs) — one entry per engine.
ENGINES = [
    ("array", {}),
    ("async", {"schedule": SynchronousSchedule()}),
]


def _phase_log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


def _ledger_event_totals(tracer):
    events = tracer.ledger_events("main")
    return (
        sum(e["args"]["rounds"] for e in events),
        sum(e["args"]["messages"] for e in events),
    )


def test_tracing_identity_and_replay():
    """Off = bit-for-bit ledger; on = trace replays the ledger exactly."""
    net = grid_2d(8, 8)
    partition = bfs_ball_partition(net, target_size=12, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]

    def experiment():
        rows = []
        data = {}
        for label, kwargs in ENGINES:
            # Explicit scoping (not the ambient default) so this bench
            # stays valid under the runner's own --trace wrapper.
            with use_tracer(NULL_TRACER):
                off = solve_pa(
                    net, partition, values, SUM, seed=7,
                    solver=PASolver(net, seed=7, **kwargs),
                )

            tracer = Tracer()
            with use_tracer(tracer):
                on = solve_pa(
                    net, partition, values, SUM, seed=7,
                    solver=PASolver(net, seed=7, **kwargs),
                )

            # Contract 1: tracing never perturbs the cost model.
            assert on.aggregates == off.aggregates
            assert _phase_log(on.ledger) == _phase_log(off.ledger)

            # Contract 2: the trace replays the ledger to the unit.
            ev_rounds, ev_msgs = _ledger_event_totals(tracer)
            assert (ev_rounds, ev_msgs) == (on.rounds, on.messages)

            n_events = len(tracer.events)
            n_spans = sum(1 for e in tracer.events if e.get("ph") == "X")
            if label == "array":
                data.update(rounds=off.rounds, messages=off.messages)
            data[f"events_{label}"] = n_events
            rows.append(
                (label, off.rounds, off.messages, ev_rounds, ev_msgs,
                 n_events, n_spans)
            )
        data["rows"] = rows
        return data

    data = experiment()
    print_table(
        "E-obs: 8x8 grid PA per engine, tracing off vs on",
        ["engine", "rounds", "messages", "replayed rounds",
         "replayed msgs", "trace events", "spans"],
        data["rows"],
    )
    record(
        rounds=data["rounds"], messages=data["messages"],
        trace_events_array=data["events_array"],
        trace_events_async=data["events_async"],
    )

