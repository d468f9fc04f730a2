"""``repro.obs.report``: one fold, one report, one per-phase diff.

The report is judged by the replay property it rests on: the families'
totals are the run's ledger totals to the unit (nothing dropped, nothing
counted twice) and their wall is the engine phases' spans to the
microsecond; the envelopes come from the ``pa.net`` instant the solver
emits — only while every such instant names the same network — and the
setups, routes, merge rounds and degraded paths from the instants and
spans the layers emit where they decide.
"""

import math

import pytest

from repro import PAService, PASession
from repro.algorithms import minimum_spanning_tree
from repro.congest import PhaseStats
from repro.core.aggregation import SUM, Aggregation
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_connected,
    random_connected_partition,
    random_regular,
    with_distinct_weights,
)
from repro.obs import Tracer, diff, explain, render, render_diff, use_tracer
from repro.obs.report import PhaseTotals, phase_family
from repro.service import sum_query


@pytest.mark.parametrize("name, family", [
    ("phase21_moecoins_reverse", "moecoins_reverse"),  # a pre-PR 23 trace
    ("phase21_moe_reverse", "moe_reverse"),
    ("verify_2_wave", "verify_wave"),
    ("det_verify_1_replay", "det_verify_replay"),
    ("corefast_claim_3", "corefast_claim"),
    ("alg8_1_rank0_doubling", "alg8_rank_doubling"),
    ("alg9_bc12_replay", "alg9_bc_replay"),
    ("mst_star_pa2_reverse", "mst_star_pa_reverse"),
    ("serve5q_wave", "serve_wave"),
    ("serve5_wave", "serve_wave"),
    ("attempt0:phase1_relabel_replay", "relabel_replay"),
    ("attempt1:reelect2:alg9_pick_wave", "alg9_pick_wave"),
    ("recovery:heartbeat", "recovery:heartbeat"),
    ("coarsen_boundary_exchange", "coarsen_boundary_exchange"),
    ("annotate_blocks", "annotate_blocks"),
])
def test_phase_family_strips_loop_counters_only(name, family):
    assert phase_family(name) == family


def _clock():
    t = [0.0]

    def tick():
        t[0] += 0.001
        return t[0]

    return tick


def _sample_tracer():
    """Every kind of event the report reads, once or a few times."""
    tracer = Tracer(clock=_clock())
    tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10, ticks=4, bits=80))
    tracer.ledger("main", PhaseStats("wave", rounds=2, messages=5, ticks=2, bits=40))
    tracer.ledger("main", PhaseStats("bfs", rounds=7, messages=100, ticks=7))
    tracer.ledger("async_overhead", PhaseStats("sync:wave", rounds=12, messages=60))
    start = tracer.now_us()
    tracer.complete(
        "wave", "engine.phase", start,
        {"impl": "async", "time_units": 12, "pulses": 4,
         "payload_messages": 15, "ack_messages": 15, "safe_messages": 30},
    )
    tracer.complete("bfs", "engine.phase", tracer.now_us(), {"impl": "scalar"})
    # an engine phase no ledger charged: wall with zero rounds
    tracer.complete("rederive_wave", "engine.phase", tracer.now_us(), {})
    tracer.instant("fast_forward", "engine.ff", {"skipped": 9})
    for reason in ("non_int", "non_int", "overflow"):
        tracer.instant(
            "kernel_fallback", "engine.fallback",
            {"phase": "wave", "reason": reason},
        )
    tracer.instant(
        "pa.route", "pa",
        {"phase": "pa", "outcome": "learned", "wire": 40, "forest": 17},
    )
    for _ in range(2):
        tracer.instant(
            "pa.route", "pa", {"phase": "pa", "outcome": "reused", "forest": 17}
        )
    built = {"rounds": 1, "messages": 2, "bound": 0, "b": 1, "c": 1,
             "subparts": 4}
    for outcome, verified in (
        ("coarsened", "implied"), ("coarsened", "implied"),
        ("refined", "ran"), ("rebuild", "ran"), ("full", None),
    ):
        args = dict(built, outcome=outcome)
        if verified:
            args["verified"] = verified
        tracer.complete("session.prepare", "session", tracer.now_us(), args)
    # a prepare that raised closes its span without arguments
    tracer.complete("session.prepare", "session", tracer.now_us(), {})
    for repaired in (True, False):
        tracer.instant("session.edge_update", "session", {"repaired": repaired})
    for outcome in ("died", "tainted", "clean"):
        tracer.complete(
            "recovery.attempt", "recovery", tracer.now_us(),
            {"attempt": 0, "workload": "pa", "outcome": outcome},
        )
    tracer.instant(
        "session.sharded_fallback", "session",
        {"phase": "pa", "reason": "aggregation"},
    )
    tracer.instant("service.split_wave", "service", {"wave": 3, "queries": 12})
    tracer.counter("wave", {"tick": 0, "messages": 4})
    return tracer


def test_the_fold_keeps_ledger_totals_per_stream_and_phase():
    report = explain(_sample_tracer().events)
    assert report.streams == {"main": (12, 115), "async_overhead": (12, 60)}
    wave = report.phases[("main", "wave")]
    assert wave.key_tuple() == (2, 5, 15, 6, 120)
    assert report.phases[("async_overhead", "sync:wave")].rounds == 12
    # the families are the main stream's only
    assert set(report.families) == {"wave", "bfs"}


def test_the_fold_reads_wall_async_routes_and_degraded_paths():
    tracer = _sample_tracer()
    report = explain(tracer.events)
    assert set(report.wall_us) == {"wave", "bfs", "rederive_wave"}
    assert report.wall_us["wave"] > 0
    assert report.asynchrony == {
        "pulses": 4, "time_units": 12, "payload_messages": 15,
        "ack_messages": 15, "safe_messages": 30,
    }
    assert report.routes == (1, 40, 17, 2)
    assert report.degraded == {
        "kernel fallback, non_int": 2,
        "kernel fallback, overflow": 1,
        "projection replaced by a fresh prepare": 1,
        "edge update rebuilt the solver": 1,
        "recovery attempt died": 1,
        "recovery attempt tainted": 1,
        "sharded solve served in-process, aggregation": 1,
        "service wave split in two": 1,
    }
    stamps = [e["ts"] for e in tracer.events]
    ends = [e["ts"] + e.get("dur", 0) for e in tracer.events]
    assert report.extent_us == max(ends) - min(stamps) > 0


def test_render_prints_every_section():
    report = explain(_sample_tracer().events)
    text = render(report)
    assert "stream main: rounds=12 messages=115" in text
    assert "stream async_overhead: rounds=12 messages=60" in text
    assert "net: no pa.net instant in trace (no envelopes)" in text
    assert "wall ms" in text
    # the unmetered engine phase is a row with wall and no rounds
    row = next(line for line in text.splitlines() if "rederive_wave" in line)
    assert row.split()[1:3] == ["0", "0"] and float(row.split()[-1]) > 0
    engine_ms = sum(report.wall_us.values()) / 1000
    assert (
        f"engine phases: {engine_ms:.3f} ms of "
        f"{report.extent_us / 1000:.3f} ms traced"
    ) in text
    assert "async overhead: pulses=4 time_units=12" in text
    assert "(control/payload = 3.00x)" in text
    assert (
        "routes: 1 learned, wire 40 -> forest 17 edges; "
        "2 solves reused one"
    ) in text
    assert "  rebuild: 1, rounds 1, messages 2" in text
    assert "projections: 2 verified, 2 implied" in text
    assert "degraded paths taken:" in text
    for label, count in report.degraded.items():
        assert any(
            line.split() == [*label.split(), str(count)]
            for line in text.splitlines()
        ), label


def test_render_without_main_stream_ledger_events():
    assert render(explain([])) == "no main-stream ledger events in trace"
    tracer = Tracer()
    tracer.ledger("async_overhead", PhaseStats("wave", rounds=9, messages=90))
    assert render(explain(tracer.events)) == (
        "no main-stream ledger events in trace"
    )


@pytest.fixture(scope="module")
def mst_trace():
    net = with_distinct_weights(random_regular(64, 4, seed=3), seed=4)
    tracer = Tracer()
    with use_tracer(tracer):
        session = PASession(net, seed=3, reuse=True, batch=True)
        result = minimum_spanning_tree(net, seed=3, session=session)
    return net, session, result, tracer


def test_families_replay_the_ledger_exactly(mst_trace):
    net, session, result, tracer = mst_trace
    report = explain(tracer.events)
    families = report.families
    assert report.streams["main"] == (result.rounds, result.messages)
    assert sum(t.rounds for t in families.values()) == result.rounds
    assert sum(t.messages for t in families.values()) == result.messages
    assert sum(t.count for t in families.values()) == len(
        tracer.ledger_events("main")
    )
    # ... and their wall is the engine phases' spans, to the microsecond
    spans = [e for e in tracer.events if e["cat"] == "engine.phase"]
    assert sum(report.family_wall_us.values()) == sum(e["dur"] for e in spans)
    # every merging-loop phase number folded away
    assert not any("phase" in name for name in families)
    assert families["moe_reverse"].count > 1
    assert families["mst_seed"].count == 1
    assert families["mst_target_exchange"].count == result.meta["phases"]
    # a formula-charged exchange has rounds and no engine phase
    assert families["mst_neighbor_exchange"].rounds > 0
    assert "mst_neighbor_exchange" not in report.family_wall_us


def test_envelopes_come_from_the_pa_net_instant(mst_trace):
    net, session, _result, tracer = mst_trace
    report = explain(tracer.events)
    depth = session.solver.tree_result.depth
    assert report.nets == [(net.n, net.m, depth)]
    assert report.round_envelope == depth + math.ceil(math.sqrt(net.n))
    text = render(report)
    assert f"net: n={net.n} m={net.m} tree depth={depth}" in text
    owner, totals = report.owner("rounds")
    assert totals.rounds == max(t.rounds for t in report.families.values())
    # the figures this run prints
    assert "round slack 17.77: owned by mst_termination (15.2% of rounds)" in text
    assert (
        "message slack 36.90: owned by mst_neighbor_exchange (17.6% of messages)"
    ) in text
    assert owner == "mst_termination"


def test_setups_and_projections_come_from_the_prepare_spans(mst_trace):
    _net, session, _result, tracer = mst_trace
    prepares = explain(tracer.events).of("session.prepare")
    stats = session.stats
    assert len(prepares) == stats.prepares + stats.coarsenings
    projections = [a for a in prepares if a["outcome"] != "full"]
    # a singleton-start Boruvka never claims a shortcut edge: every bound
    # is zero, so every coarsening is implied
    assert stats.implied == stats.coarsenings > 0
    assert {a["verified"] for a in projections} == {"implied"}
    assert all("verified" not in a for a in prepares if a["outcome"] == "full")
    for args in prepares:
        assert (args["bound"], args["b"], args["c"]) == (0, 1, 1)
        assert args["subparts"] == 64
    text = render(explain(tracer.events))
    assert f"projections: 0 verified, {stats.coarsenings} implied" in text


def test_merge_rounds_come_from_the_merge_round_instants(mst_trace):
    net, _session, result, tracer = mst_trace
    report = explain(tracer.events)
    rounds = report.of("merge.round")
    assert [args["round"] for args in rounds] == list(
        range(1, result.meta["phases"] + 1)
    )
    assert {args["loop"] for args in rounds} == {"mst"}
    # a connected graph: every fragment picks, the fragments left are the
    # ones that did not join, and the last round joins all but one
    assert rounds[0]["clusters"] == rounds[0]["picks"] == net.n
    for before, after in zip(rounds, rounds[1:]):
        assert after["clusters"] == before["clusters"] - before["joins"]
        assert before["picks"] == before["clusters"]
    assert rounds[-1]["clusters"] - rounds[-1]["joins"] == 1
    assert len(rounds) <= 2 * math.ceil(math.log2(net.n))
    assert (
        "merge rounds: 7 for ceil(log2 n) = 6; joined share "
        "min 0.25 / mean 0.43"
    ) in render(report)


def test_a_trace_without_a_solver_has_no_envelopes():
    tracer = Tracer()
    tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10))
    tracer.ledger("async_overhead", PhaseStats("wave", rounds=9, messages=90))
    report = explain(tracer.events)
    assert report.streams["main"] == (3, 10)  # main stream only
    assert report.round_envelope is None
    assert "no pa.net instant" in render(report)


def _two_msts(order):
    # A constant clock: every wall is zero, so two runs render alike.
    tracer = Tracer(clock=lambda: 0.0)
    with use_tracer(tracer):
        for n in order:
            net = with_distinct_weights(random_regular(n, 4, seed=3), seed=4)
            session = PASession(net, seed=3, reuse=True, batch=True)
            minimum_spanning_tree(net, seed=3, session=session)
    return render(explain(tracer.events))


def test_a_trace_of_two_networks_is_measured_against_neither():
    small_first = _two_msts((16, 512))
    assert small_first == _two_msts((512, 16))
    assert "2 networks in trace: no envelopes" in small_first
    assert "round slack: owned by" in small_first
    assert "message slack: owned by" in small_first
    assert "merge rounds: 13; joined share" in small_first
    assert "ceil(log2 n)" not in small_first


def test_the_degraded_paths_without_a_counter_are_traced_where_they_count():
    """A sharded request served in-process and an over-wide service wave
    split in two are instants now, beside the counters that count them."""
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, 8, seed=5)
    custom = Aggregation("custom", lambda a, b: a + b)
    tracer = Tracer()
    with use_tracer(tracer):
        session = PASession(net, seed=3, backend="sharded", workers=2)
        setup = session.prepare(partition)
        session.solve(setup, list(range(net.n)), SUM)  # below shard_min_n
        session.solve(setup, list(range(net.n)), custom)
        session.close()
        grid = grid_2d(8, 8)  # a 96-bit budget: twelve queries overflow it
        svc = PAService(grid, bfs_ball_partition(grid, 9, seed=3), seed=1,
                        max_batch=12)
        for i in range(12):
            svc.submit("t", sum_query([(v * 977 + 13 * i) % 100000
                                       for v in range(grid.n)]))
        svc.close()
    degraded = explain(tracer.events).degraded
    assert session.stats.sharded_fallbacks == 2
    assert degraded["sharded solve served in-process, ineligible"] == 1
    assert degraded["sharded solve served in-process, aggregation"] == 1
    assert degraded["service wave split in two"] == svc.stats.split_waves >= 1


def test_diff_identical_traces_is_zero_drift():
    a = explain(_sample_tracer().events)
    b = explain(_sample_tracer().events)
    assert diff(a, b) == []
    assert "zero drift" in render_diff([], "A", "B")


def test_diff_ignores_wall_time():
    slow = Tracer(clock=_clock())
    fast = Tracer(clock=_clock())
    for tracer, reps in ((slow, 5), (fast, 1)):
        start = tracer.now_us()
        for _ in range(reps):
            tracer.now_us()  # stretch this span's wall duration only
        tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10))
        tracer.complete("wave", "engine.phase", start, {"impl": "scalar"})
    a, b = explain(slow.events), explain(fast.events)
    assert a.wall_us != b.wall_us
    assert diff(a, b) == []


def test_diff_reports_changed_and_missing_phases():
    a = Tracer()
    a.ledger("main", PhaseStats("wave", rounds=3, messages=10))
    a.ledger("main", PhaseStats("bfs", rounds=7, messages=100))
    b = Tracer()
    b.ledger("main", PhaseStats("wave", rounds=4, messages=10))

    drift = diff(explain(a.events), explain(b.events))
    assert [(stream, name) for stream, name, _, _ in drift] == [
        ("main", "bfs"),
        ("main", "wave"),
    ]
    # the missing phase compares against all zeros
    bfs = drift[0]
    assert bfs[3] == PhaseTotals().key_tuple()

    text = render_diff(drift, "before", "after")
    assert "2 phase(s) drifted (before -> after)" in text
    assert "[main] wave: rounds 3 -> 4" in text
