"""Trace profiling: summarize, top-k, render, and the per-phase diff."""

from repro.congest import PhaseStats
from repro.obs import (
    PhaseTotals,
    Tracer,
    diff_summaries,
    render_diff,
    render_summary,
    summarize,
    top_phases,
    top_wall,
)


def _clock():
    t = [0.0]

    def tick():
        t[0] += 0.001
        return t[0]

    return tick


def _sample_tracer():
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
    tracer.instant("fast_forward", "engine.ff", {"skipped": 9})
    tracer.instant("fast_forward", "engine.ff", {"skipped": 2})
    tracer.instant("crash", "fault", {"node": 3})
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
    for verified in ("implied", "implied", "ran"):
        tracer.complete(
            "session.prepare", "session", tracer.now_us(),
            {"outcome": "coarsened", "verified": verified},
        )
    tracer.complete(
        "session.prepare", "session", tracer.now_us(), {"outcome": "full"}
    )
    tracer.counter("wave", {"tick": 0, "messages": 4})
    return tracer


def test_summarize_aggregates_ledger_events_per_stream_and_phase():
    summary = summarize(_sample_tracer().events)
    assert summary.stream_totals == {
        "main": (12, 115),
        "async_overhead": (12, 60),
    }
    assert summary.main_totals == (12, 115)
    wave = summary.phases[("main", "wave")]
    assert (wave.count, wave.rounds, wave.messages, wave.ticks, wave.bits) == (
        2, 5, 15, 6, 120,
    )
    assert summary.phases[("async_overhead", "sync:wave")].rounds == 12


def test_summarize_collects_wall_async_and_event_counts():
    summary = summarize(_sample_tracer().events)
    assert set(summary.wall_us) == {"wave", "bfs"}
    assert summary.wall_us["wave"] > 0
    assert summary.async_time_units == 12
    assert summary.async_pulses == 4
    assert summary.async_payloads == 15
    assert summary.async_acks == 15
    assert summary.async_safes == 30
    # counters and ledger events are not instant events; spans neither
    assert summary.event_counts == {
        "fast_forward": 2, "crash": 1, "kernel_fallback": 3, "pa.route": 3,
    }
    assert summary.kernel_fallbacks == {"non_int": 2, "overflow": 1}
    assert (
        summary.routes_learned, summary.route_wire_edges,
        summary.route_forest_edges, summary.routes_reused,
    ) == (1, 40, 17, 2)


def test_top_phases_orders_by_column_then_name():
    summary = summarize(_sample_tracer().events)
    by_rounds = top_phases(summary, "rounds", 5)
    assert [name for name, _ in by_rounds] == ["bfs", "wave"]
    by_messages = top_phases(summary, "messages", 1)
    assert [name for name, _ in by_messages] == ["bfs"]
    # the stream filter keeps overhead phases out of the main table
    assert all(
        name != "sync:wave" for name, _ in top_phases(summary, "rounds", 5)
    )
    overhead = top_phases(summary, "rounds", 5, stream="async_overhead")
    assert [name for name, _ in overhead] == ["sync:wave"]


def test_top_wall_orders_by_duration():
    summary = summarize(_sample_tracer().events)
    rows = top_wall(summary, 5)
    assert [name for name, _ in rows] == sorted(
        summary.wall_us, key=lambda n: (-summary.wall_us[n], n)
    )


def test_render_summary_mentions_all_sections():
    text = render_summary(summarize(_sample_tracer().events), top=5)
    assert "stream main: rounds=12 messages=115" in text
    assert "stream async_overhead: rounds=12 messages=60" in text
    assert "top 5 phases by rounds" in text
    assert "wall time" in text
    assert "sync-vs-async overhead" in text
    assert "control/payload" in text
    assert "fast_forward: 2" in text
    assert "kernel fallbacks (3 phases left the column path" in text
    assert "  non_int: 2" in text
    assert (
        "routes: 1 learned, wire 40 -> forest 17 edges; "
        "2 solves reused one"
    ) in text
    assert "projections: 1 verified, 2 implied" in text


def test_render_summary_empty_trace():
    assert "no ledger events" in render_summary(summarize([]))


def test_diff_identical_traces_is_zero_drift():
    a = summarize(_sample_tracer().events)
    b = summarize(_sample_tracer().events)
    assert diff_summaries(a, b) == []
    assert "zero drift" in render_diff([])


def test_diff_ignores_wall_time():
    slow = Tracer(clock=_clock())
    fast = Tracer(clock=_clock())
    for tracer, reps in ((slow, 5), (fast, 1)):
        start = tracer.now_us()
        for _ in range(reps):
            tracer.now_us()  # stretch this span's wall duration only
        tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10))
        tracer.complete("wave", "engine.phase", start, {"impl": "scalar"})
    a, b = summarize(slow.events), summarize(fast.events)
    assert a.wall_us != b.wall_us
    assert diff_summaries(a, b) == []


def test_diff_reports_changed_and_missing_phases():
    a = Tracer()
    a.ledger("main", PhaseStats("wave", rounds=3, messages=10))
    a.ledger("main", PhaseStats("bfs", rounds=7, messages=100))
    b = Tracer()
    b.ledger("main", PhaseStats("wave", rounds=4, messages=10))

    drift = diff_summaries(summarize(a.events), summarize(b.events))
    assert [(stream, name) for stream, name, _, _ in drift] == [
        ("main", "bfs"),
        ("main", "wave"),
    ]
    # the missing phase compares against all zeros
    bfs = drift[0]
    assert bfs[3] == PhaseTotals().key_tuple()

    text = render_diff(drift, label_a="before", label_b="after")
    assert "2 phase(s) drifted (before -> after)" in text
    assert "[main] wave: rounds 3 -> 4" in text
