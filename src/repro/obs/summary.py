"""Trace-driven profiling: load, summarize and diff recorded traces.

A trace is the event list a :class:`repro.obs.Tracer` wrote — the
Chrome-trace JSON object (``{"traceEvents": [...]}``).  Everything here
works on the *deterministic* fields (the ledger events'
rounds/messages/ticks/bits and event counts); wall times are
summarized but never diffed — the same hardware-facts-are-not-model-facts
rule the bench runner's ``--check-against`` gate follows.

The per-phase diff is the fine-grained version of that gate: where the
bench gate compares one (rounds, messages) total per experiment, the
trace diff compares every phase of the run, so a regression names the
phase it lives in instead of just the experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Aggregation key for ledger events: (stream, phase name).
PhaseKey = Tuple[str, str]


@dataclass
class PhaseTotals:
    """Aggregated ledger quantities of one (stream, phase-name) series."""

    count: int = 0
    rounds: int = 0
    messages: int = 0
    ticks: int = 0
    bits: int = 0

    def add(self, args: Dict) -> None:
        self.count += 1
        self.rounds += args.get("rounds", 0)
        self.messages += args.get("messages", 0)
        self.ticks += args.get("ticks", 0)
        self.bits += args.get("bits", 0)

    def key_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.count, self.rounds, self.messages, self.ticks, self.bits)


@dataclass
class TraceSummary:
    """Everything the CLI prints, precomputed from one event list."""

    #: (stream, name) -> aggregated ledger quantities.
    phases: Dict[PhaseKey, PhaseTotals] = field(default_factory=dict)
    #: stream -> (rounds, messages) totals.
    stream_totals: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: phase name -> total wall microseconds (engine.phase spans).
    wall_us: Dict[str, int] = field(default_factory=dict)
    #: async span aggregates (time units / pulses / control traffic).
    async_time_units: int = 0
    async_pulses: int = 0
    async_payloads: int = 0
    async_acks: int = 0
    async_safes: int = 0
    #: instant-event counts by name (fast-forwards, faults, session ops).
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: ``kernel_fallback`` instants by reason code: phases that left the
    #: column path on an array engine because the kernel declined the
    #: payload (the scalar program ran; a ``*_reverse`` folded a list).
    kernel_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: ``pa.route`` instants: solves that learned their setup's route
    #: (with the wire and forest edge counts they learned, summed) and
    #: solves that reused one.
    routes_learned: int = 0
    route_wire_edges: int = 0
    route_forest_edges: int = 0
    routes_reused: int = 0
    #: ``session.prepare`` spans of projections, by whether the block
    #: verification ran or was implied by the parent setup's counts.
    projections_verified: int = 0
    projections_implied: int = 0

    @property
    def main_totals(self) -> Tuple[int, int]:
        return self.stream_totals.get("main", (0, 0))


def load_trace(path) -> List[Dict]:
    """Read a trace written by ``Tracer.write_chrome``.

    One JSON document: the ``{"traceEvents": [...]}`` object, or the
    Chrome format's bare event list.
    """
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, list):
        return payload
    events = payload.get("traceEvents")
    if events is None:
        raise ValueError(f"{path}: JSON object without 'traceEvents'")
    return events


def summarize(events: Sequence[Dict]) -> TraceSummary:
    """Aggregate one event list into a :class:`TraceSummary`."""
    out = TraceSummary()
    totals: Dict[str, List[int]] = {}
    for event in events:
        cat = event.get("cat", "")
        args = event.get("args", {})
        name = event.get("name", "?")
        if cat == "ledger":
            stream = args.get("stream", "main")
            out.phases.setdefault((stream, name), PhaseTotals()).add(args)
            bucket = totals.setdefault(stream, [0, 0])
            bucket[0] += args.get("rounds", 0)
            bucket[1] += args.get("messages", 0)
        elif cat == "engine.phase" and event.get("ph") == "X":
            out.wall_us[name] = out.wall_us.get(name, 0) + event.get("dur", 0)
            if args.get("impl") == "async":
                out.async_time_units += args.get("time_units", 0)
                out.async_pulses += args.get("pulses", 0)
                out.async_payloads += args.get("payload_messages", 0)
                out.async_acks += args.get("ack_messages", 0)
                out.async_safes += args.get("safe_messages", 0)
        elif name == "session.prepare" and event.get("ph") == "X":
            if args.get("verified") == "ran":
                out.projections_verified += 1
            elif args.get("verified") == "implied":
                out.projections_implied += 1
        elif event.get("ph") == "i" and cat != "ledger":
            out.event_counts[name] = out.event_counts.get(name, 0) + 1
            if name == "kernel_fallback":
                reason = args.get("reason", "?")
                out.kernel_fallbacks[reason] = (
                    out.kernel_fallbacks.get(reason, 0) + 1
                )
            elif name == "pa.route":
                if args.get("outcome") == "learned":
                    out.routes_learned += 1
                    out.route_wire_edges += args.get("wire", 0)
                    out.route_forest_edges += args.get("forest", 0)
                else:
                    out.routes_reused += 1
    out.stream_totals = {k: (v[0], v[1]) for k, v in totals.items()}
    return out


def top_phases(
    summary: TraceSummary, by: str, k: int, stream: str = "main"
) -> List[Tuple[str, PhaseTotals]]:
    """The ``k`` costliest phases of one stream, by a ledger column."""
    rows = [
        (name, tot)
        for (s, name), tot in summary.phases.items()
        if s == stream
    ]
    rows.sort(key=lambda item: (-getattr(item[1], by), item[0]))
    return rows[:k]


def top_wall(summary: TraceSummary, k: int) -> List[Tuple[str, int]]:
    """The ``k`` phases with the largest wall time (microseconds)."""
    rows = sorted(summary.wall_us.items(), key=lambda kv: (-kv[1], kv[0]))
    return rows[:k]


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """Human-readable multi-section report for one trace."""
    lines: List[str] = []
    for stream in sorted(summary.stream_totals):
        rounds, messages = summary.stream_totals[stream]
        lines.append(f"stream {stream}: rounds={rounds} messages={messages}")
    if not summary.stream_totals:
        lines.append("no ledger events in trace")

    def _table(title: str, rows: List[Tuple[str, PhaseTotals]]) -> None:
        if not rows:
            return
        lines.append("")
        lines.append(title)
        width = max(len(name) for name, _ in rows)
        header = (
            f"  {'phase'.ljust(width)}  {'count':>7}  {'rounds':>10}  "
            f"{'messages':>12}  {'bits':>14}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for name, tot in rows:
            lines.append(
                f"  {name.ljust(width)}  {tot.count:>7}  {tot.rounds:>10}  "
                f"{tot.messages:>12}  {tot.bits:>14}"
            )

    _table(
        f"top {top} phases by rounds (stream main):",
        top_phases(summary, "rounds", top),
    )
    _table(
        f"top {top} phases by messages (stream main):",
        top_phases(summary, "messages", top),
    )
    wall = top_wall(summary, top)
    if wall:
        lines.append("")
        lines.append(f"top {top} phases by wall time:")
        width = max(len(name) for name, _ in wall)
        for name, us in wall:
            lines.append(f"  {name.ljust(width)}  {us / 1000:>10.3f} ms")
    if summary.async_pulses or summary.async_time_units:
        payloads = max(1, summary.async_payloads)
        control = summary.async_acks + summary.async_safes
        lines.append("")
        lines.append("sync-vs-async overhead:")
        lines.append(
            f"  pulses={summary.async_pulses} "
            f"time_units={summary.async_time_units}"
        )
        lines.append(
            f"  payload_messages={summary.async_payloads} "
            f"ack_messages={summary.async_acks} "
            f"safe_messages={summary.async_safes} "
            f"(control/payload = {control / payloads:.2f}x)"
        )
    if summary.kernel_fallbacks:
        lines.append("")
        lines.append(
            f"kernel fallbacks ({sum(summary.kernel_fallbacks.values())}"
            " phases left the column path on an array engine), by reason:"
        )
        for reason in sorted(summary.kernel_fallbacks):
            lines.append(f"  {reason}: {summary.kernel_fallbacks[reason]}")
    if summary.routes_learned or summary.routes_reused:
        lines.append("")
        lines.append(
            f"routes: {summary.routes_learned} learned, wire "
            f"{summary.route_wire_edges} -> forest "
            f"{summary.route_forest_edges} edges; "
            f"{summary.routes_reused} solves reused one"
        )
    if summary.projections_verified or summary.projections_implied:
        lines.append("")
        lines.append(
            f"projections: {summary.projections_verified} verified, "
            f"{summary.projections_implied} implied"
        )
    if summary.event_counts:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary.event_counts):
            lines.append(f"  {name}: {summary.event_counts[name]}")
    return "\n".join(lines)


def diff_summaries(
    a: TraceSummary, b: TraceSummary
) -> List[Tuple[str, str, Tuple, Tuple]]:
    """Per-phase drift between two traces' deterministic quantities.

    Returns ``(stream, phase, a_quantities, b_quantities)`` rows where
    the aggregated (count, rounds, messages, ticks, bits) differ; a
    phase missing on one side compares against all zeros.  Wall times
    are never compared.  Empty list = zero drift.
    """
    drift: List[Tuple[str, str, Tuple, Tuple]] = []
    zero = PhaseTotals()
    for key in sorted(set(a.phases) | set(b.phases)):
        ta = a.phases.get(key, zero).key_tuple()
        tb = b.phases.get(key, zero).key_tuple()
        if ta != tb:
            drift.append((key[0], key[1], ta, tb))
    return drift


def render_diff(
    drift: List[Tuple[str, str, Tuple, Tuple]],
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    if not drift:
        return "zero drift: every phase's count/rounds/messages/ticks/bits identical"
    lines = [f"{len(drift)} phase(s) drifted ({label_a} -> {label_b}):"]
    columns = ("count", "rounds", "messages", "ticks", "bits")
    for stream, name, ta, tb in drift:
        deltas = ", ".join(
            f"{col} {va} -> {vb}"
            for col, va, vb in zip(columns, ta, tb)
            if va != vb
        )
        lines.append(f"  [{stream}] {name}: {deltas}")
    return "\n".join(lines)
