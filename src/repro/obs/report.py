"""One report per trace: what ``python -m repro.obs explain`` and ``diff`` read.

:func:`explain` folds a trace (the events a :class:`repro.obs.Tracer`
wrote) once into a :class:`Report`: per ``(stream, phase)`` the ledger
totals :func:`diff` compares, the wall of every engine phase, and the
arguments of the few instants and spans the report reads; every section
:func:`render` prints is derived from that record.  Its table folds the
main-stream phases into *families* (loop counters stripped) and holds
each against the paper's envelopes — rounds ÷ (tree depth + ⌈√n⌉),
messages ÷ m, off the ``pa.net`` instant — beside the wall its engine
phases took.  A trace whose ``pa.net`` instants name several networks
has no envelopes: one network's ``n`` and ``m`` do not measure another's
ledger.  :func:`diff` never compares wall times (hardware facts).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The instants and spans whose arguments the report reads.
_READ = frozenset({
    "pa.net", "pa.route", "merge.round", "session.prepare",
    "session.edge_update", "session.sharded_fallback", "service.split_wave",
    "recovery.attempt", "kernel_fallback", "tree.redraw",
})

#: The synchronizer's counts on an async ``engine.phase`` span.
_ASYNC = ("pulses", "time_units", "payload_messages", "ack_messages",
          "safe_messages")

#: Per event name, the degraded path one such event took (``None``: none).
_DEGRADED = {
    "kernel_fallback": lambda a: f"kernel fallback, {a['reason']}"
        + (f", factor {a['factor']}" if "factor" in a else ""),
    "session.sharded_fallback":
        lambda a: f"sharded solve served in-process, {a['reason']}",
    "service.split_wave": lambda a: "service wave split in two",
    "session.prepare": lambda a: "projection replaced by a fresh prepare"
        if a.get("outcome") == "rebuild" else None,
    "session.edge_update": lambda a: None if a["repaired"]
        else "edge update rebuilt the solver",
    "recovery.attempt": lambda a: f"recovery attempt {a['outcome']}"
        if a["outcome"] in ("tainted", "died") else None,
    "tree.redraw": lambda a: "election redrawn, no candidate stood",
}

_ATTEMPT = re.compile(r"^(?:(?:attempt|reelect)\d+:)+")
_PHASE = re.compile(r"phase\d+")
_ALGORITHM = re.compile(r"alg\d+")
_COUNTER = re.compile(r"\d+q?$")


def phase_family(name: str) -> str:
    """A ledger phase's family: its name without the loop counters.

    Dropped: the ``attempt{k}:`` / ``reelect{k}:`` prefixes of a
    recovery, ``phase{k}`` of a merging loop, an all-digit token (an
    iteration number: ``verify_2_wave``, ``alg8_1_rank0_cross``) and a
    token's trailing counter (``rank0``, ``bc12``, ``serve5q``).  The
    paper's algorithm numbers stay (``alg8``, ``alg9``).
    """
    tokens = []
    for token in _ATTEMPT.sub("", name).split("_"):
        if token.isdigit() or _PHASE.fullmatch(token):
            continue
        if not _ALGORITHM.fullmatch(token):
            token = _COUNTER.sub("", token)
        tokens.append(token)
    return "_".join(tokens)


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
class Report:
    """One trace, folded once; every section is derived from these fields."""

    #: (stream, phase name) -> aggregated ledger quantities.
    phases: Dict[Tuple[str, str], PhaseTotals] = field(default_factory=dict)
    #: phase name -> total wall microseconds of its ``engine.phase`` spans.
    wall_us: Dict[str, int] = field(default_factory=dict)
    #: event name in ``_READ`` (``"async"``: the async engine's phase
    #: spans) -> those events' ``args``, in trace order.
    read: Dict[str, List[Dict]] = field(default_factory=dict)
    #: From the first event's timestamp to the last event's end.
    extent_us: int = 0

    def of(self, name: str) -> List[Dict]:
        return self.read.get(name, [])

    @property
    def streams(self) -> Dict[str, Tuple[int, int]]:
        """stream -> (rounds, messages)."""
        out: Dict[str, Tuple[int, int]] = {}
        for (stream, _name), tot in self.phases.items():
            rounds, messages = out.get(stream, (0, 0))
            out[stream] = (rounds + tot.rounds, messages + tot.messages)
        return out

    @property
    def families(self) -> Dict[str, PhaseTotals]:
        """family -> aggregated main-stream ledger quantities."""
        out: Dict[str, PhaseTotals] = {}
        for (stream, name), tot in self.phases.items():
            if stream == "main":
                fam = out.setdefault(phase_family(name), PhaseTotals())
                for key, value in vars(tot).items():
                    setattr(fam, key, getattr(fam, key) + value)
        return out

    @property
    def family_wall_us(self) -> Dict[str, int]:
        out: Counter = Counter()
        for name, us in self.wall_us.items():
            out[phase_family(name)] += us
        return dict(out)

    @property
    def nets(self) -> List[Tuple[int, int, int]]:
        """The distinct ``(n, m, depth)`` the ``pa.net`` instants name."""
        return sorted({(a["n"], a["m"], a["depth"]) for a in self.of("pa.net")})

    @property
    def round_envelope(self) -> Optional[int]:
        """``depth + ceil(sqrt n)`` of the trace's one network, if one."""
        if len(self.nets) != 1:
            return None
        n, _m, depth = self.nets[0]
        return depth + math.isqrt(n - 1) + 1

    @property
    def routes(self) -> Tuple[int, int, int, int]:
        """Solves that learned a route, its wire and forest edges summed,
        and solves that reused one."""
        learned = [a for a in self.of("pa.route") if a["outcome"] == "learned"]
        return (
            len(learned), sum(a["wire"] for a in learned),
            sum(a["forest"] for a in learned),
            len(self.of("pa.route")) - len(learned),
        )

    @property
    def asynchrony(self) -> Dict[str, int]:
        return {key: sum(a[key] for a in self.of("async")) for key in _ASYNC}

    @property
    def degraded(self) -> Dict[str, int]:
        """Degraded path -> how many times the run took it."""
        return dict(Counter(
            label for name, label_of in _DEGRADED.items()
            for args in self.of(name)
            if (label := label_of(args)) is not None
        ))

    def owner(self, by: str) -> Optional[Tuple[str, PhaseTotals]]:
        """The family with the largest total of ledger column ``by``."""
        return min(
            self.families.items(),
            key=lambda item: (-getattr(item[1], by), item[0]), default=None,
        )


def load_trace(path) -> List[Dict]:
    """Read a trace written by ``Tracer.write_chrome``: the
    ``{"traceEvents": [...]}`` object, or the Chrome format's bare list."""
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, list):
        return payload
    events = payload.get("traceEvents")
    if events is None:
        raise ValueError(f"{path}: JSON object without 'traceEvents'")
    return events


def explain(events: Sequence[Dict]) -> Report:
    """Fold one trace's events into a :class:`Report`, in one pass."""
    out = Report()
    first = last = None
    for event in events:
        name, args = event.get("name", "?"), event.get("args", {})
        if "ts" in event:
            end = event["ts"] + event.get("dur", 0)
            first = event["ts"] if first is None else min(first, event["ts"])
            last = end if last is None else max(last, end)
        if event.get("cat") == "ledger":
            out.phases.setdefault(
                (args.get("stream", "main"), name), PhaseTotals()
            ).add(args)
        elif event.get("cat") == "engine.phase" and event.get("ph") == "X":
            out.wall_us[name] = out.wall_us.get(name, 0) + event.get("dur", 0)
            if args.get("impl") == "async":
                out.read.setdefault("async", []).append(args)
        elif name in _READ:
            out.read.setdefault(name, []).append(args)
    out.extent_us = 0 if first is None else last - first
    return out


def _ratio(value: int, base: Optional[int]) -> str:
    return f"{value / base:8.2f}" if base else f"{'-':>8}"


def _share(value: float, total: float) -> str:
    return f"{100 * value / total:5.1f}%" if total else f"{'-':>6}"


def render(report: Report) -> str:
    """Human-readable report for one trace."""
    families, nets = report.families, report.nets
    if not families:
        return "no main-stream ledger events in trace"
    lines = [
        f"stream {stream}: rounds={rounds} messages={messages}"
        for stream, (rounds, messages) in sorted(report.streams.items())
    ]
    rounds, messages = report.streams["main"]
    env, m = report.round_envelope, None
    if env is not None:
        n, m, depth = nets[0]
        lines.append(
            f"net: n={n} m={m} tree depth={depth}; envelopes: rounds "
            f"depth+ceil(sqrt n) = {env}, messages m = {m}"
        )
    elif nets:
        lines.append(f"{len(nets)} networks in trace: no envelopes")
    else:
        lines.append("net: no pa.net instant in trace (no envelopes)")

    # One row per family: the ledger's, and the engine phases' wall.
    wall = report.family_wall_us
    rows = {name: PhaseTotals() for name in wall}
    rows.update(families)
    width = max(len(name) for name in [*rows, "family"])
    header = (
        f"  {'family'.ljust(width)}  {'count':>6}  {'rounds':>8}  "
        f"{'share':>6}  {'/env':>8}  {'messages':>10}  {'share':>6}  "
        f"{'/m':>8}  {'wall ms':>9}"
    )
    lines += ["", header, "  " + "-" * (len(header) - 2)]

    def row(name: str, tot: PhaseTotals, us: int) -> str:
        return (
            f"  {name.ljust(width)}  {tot.count:>6}  {tot.rounds:>8}  "
            f"{_share(tot.rounds, rounds)}  {_ratio(tot.rounds, env)}  "
            f"{tot.messages:>10}  {_share(tot.messages, messages)}  "
            f"{_ratio(tot.messages, m)}  {us / 1000:>9.3f}"
        )

    for name, tot in sorted(rows.items(), key=lambda item: (
        -item[1].rounds, -item[1].messages, -wall.get(item[0], 0), item[0],
    )):
        lines.append(row(name, tot, wall.get(name, 0)))
    engine_us = sum(wall.values())
    count = sum(t.count for t in families.values())
    lines += [
        row("total", PhaseTotals(count, rounds, messages), engine_us),
        f"engine phases: {engine_us / 1000:.3f} ms of "
        f"{report.extent_us / 1000:.3f} ms traced "
        f"({_share(engine_us, report.extent_us).strip()})",
        "",
    ]
    for label, by, total, base in (
        ("round", "rounds", rounds, env), ("message", "messages", messages, m),
    ):
        name, tot = report.owner(by)
        slack = f" {total / base:.2f}" if base else ""
        lines.append(
            f"{label} slack{slack}: owned by {name} "
            f"({_share(getattr(tot, by), total).strip()} of {by})"
        )

    merges = report.of("merge.round")
    shares = [a["joins"] / a["picks"] for a in merges if a["picks"]]
    if shares:
        log_n = (
            f" for ceil(log2 n) = {max(1, (nets[0][0] - 1).bit_length())}"
            if env is not None else ""
        )
        lines += ["", (
            f"merge rounds: {len(merges)}{log_n}; joined share min "
            f"{min(shares):.2f} / mean {math.fsum(shares) / len(shares):.2f}"
        )]

    # (A prepare that raised closed its span without arguments.)
    prepares = [a for a in report.of("session.prepare") if "outcome" in a]
    if prepares:
        lines += ["", "setups the solves ran on:"]
        by_outcome: Dict[str, List[Dict]] = {}
        for args in prepares:
            by_outcome.setdefault(args["outcome"], []).append(args)
        for outcome, group in sorted(by_outcome.items()):
            subparts = [a["subparts"] for a in group]
            lines.append(
                f"  {outcome}: {len(group)}, rounds "
                f"{sum(a['rounds'] for a in group)}, messages "
                f"{sum(a['messages'] for a in group)}, max (b, c) = "
                f"({max(a['b'] for a in group)}, {max(a['c'] for a in group)})"
                f", max block bound {max(a['bound'] for a in group)}, "
                f"sub-parts {min(subparts)}..{max(subparts)}"
            )
        verified = [a["verified"] for a in prepares if "verified" in a]
        if verified:
            lines.append(
                f"  projections: {verified.count('ran')} verified, "
                f"{verified.count('implied')} implied"
            )

    learned, wire, forest, reused = report.routes
    if learned or reused:
        lines += ["", (
            f"routes: {learned} learned, wire {wire} -> forest {forest} "
            f"edges; {reused} solves reused one"
        )]

    sync = report.asynchrony
    if sync["pulses"] or sync["time_units"]:
        control = sync["ack_messages"] + sync["safe_messages"]
        lines += ["", "async overhead: " + " ".join(
            f"{key}={value}" for key, value in sync.items()
        ) + f" (control/payload = "
            f"{control / max(1, sync['payload_messages']):.2f}x)"]

    degraded = report.degraded
    if degraded:
        width = max(len(label) for label in degraded)
        lines += ["", "degraded paths taken:"] + [
            f"  {label.ljust(width)}  {degraded[label]:>6}"
            for label in sorted(degraded)
        ]
    return "\n".join(lines)


def diff(a: Report, b: Report) -> List[Tuple[str, str, Tuple, Tuple]]:
    """Per-phase drift between two traces' deterministic quantities.

    ``(stream, phase, a_quantities, b_quantities)`` rows where the
    aggregated (count, rounds, messages, ticks, bits) differ; a phase
    missing on one side compares against all zeros.  Wall times are
    never compared.  Empty list = zero drift.
    """
    zero = PhaseTotals()
    drift = []
    for key in sorted(set(a.phases) | set(b.phases)):
        ta = a.phases.get(key, zero).key_tuple()
        tb = b.phases.get(key, zero).key_tuple()
        if ta != tb:
            drift.append((*key, ta, tb))
    return drift


def render_diff(drift: List[Tuple], label_a: str, label_b: str) -> str:
    if not drift:
        return "zero drift: every phase's count/rounds/messages/ticks/bits identical"
    lines = [f"{len(drift)} phase(s) drifted ({label_a} -> {label_b}):"]
    columns = ("count", "rounds", "messages", "ticks", "bits")
    for stream, name, ta, tb in drift:
        deltas = ", ".join(
            f"{col} {va} -> {vb}"
            for col, va, vb in zip(columns, ta, tb) if va != vb
        )
        lines.append(f"  [{stream}] {name}: {deltas}")
    return "\n".join(lines)
