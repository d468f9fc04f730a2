"""Shared measurement code of the ``benchmarks/perf`` workloads.

A workload module (``wl_*.py``) supplies the inputs and the op; this
module supplies everything the seven have in common: seed derivation,
the closed-loop measuring loop, the benchmark-side spans and the
arithmetic that turns one traced op into per-layer numbers.

The workload interface (plain module attributes, duck-typed):

``NAME``, ``FULL`` / ``SMOKE``
    The workload's name in ``BENCHMARK.json`` and two size dicts: the
    measured size, and the reduced size the smoke test runs in-process.
``build(seed, size) -> state``
    Generate inputs and expected answers.  ``state.net`` is the network,
    ``state.timings`` holds ``graphs.generate_s`` / ``graphs.partition_s``.
``run_op(state) -> raw``
    One op with no tracer, no wrappers and no spans (the timed region).
``run_op_traced(state, tracer) -> raw``
    The same op with benchmark-side ``tracer.span(name, "perf")`` spans
    around each call into a layer.
``check(state, raw, wall_s) -> Outcome``
    Untimed: compare outputs to the expected answers, read the ledgers.
``teardown(state)`` (optional)
    Stop whatever ``build`` started (the shard workers).
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from perf_report import median_layers  # noqa: E402

from repro.obs import Tracer, use_tracer  # noqa: E402
from repro.runtime import PASession  # noqa: E402

#: How many value_at_node entries a PA check samples (every part's
#: aggregate is always compared in full).
NODE_SAMPLES = 64

#: Benchmark-side span name -> the per-layer metrics its total feeds.
#: The session workloads reach the wave layer only through
#: ``session.solve`` / ``solve_many``, so that span is their wave time too.
SPAN_TOTAL = {
    "tree.build": ("tree.build_s",),
    "division.build": ("division.build_s",),
    "shortcut.build": ("shortcut.build_s",),
    "wave.solve": ("wave.solve_s",),
    "session.solve": ("session.solve_s", "wave.solve_s"),
}
#: Span name -> the metric its *self* time (span minus nested
#: benchmark-side spans) feeds.
SPAN_SELF = {
    "session.prepare": "session.prepare_s",
    "session.incremental": "session.incremental_s",
    "mst": "mst.self_s",
}


def payload_seed(seed: int, workload: str, stream: str) -> int:
    """The seed of a payload ``stream`` (values, weights, readings) of a run.

    ``--seed`` varies what the algorithms aggregate.  A hash rather than
    arithmetic on ``seed`` so that two workloads, or two streams of one
    workload, never share a generator state.
    """
    digest = hashlib.blake2b(
        f"{seed}:{workload}:{stream}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def instance_seed(workload: str, stream: str) -> int:
    """The seed of a ``stream`` that defines the instance, not the payload.

    Topology, partition, schedule, coin flips and the update stream are
    part of a workload's definition and do not move with ``--seed``:
    rounds are a max-type quantity that does not concentrate over random
    topologies at sizes that fit a run (over ten seeds ``round_slack``
    spread by 11-32 % of its median on five workloads, ``msg_slack`` by
    22 % on ``mst_reuse``), and the costs the paper bounds do not depend
    on the values aggregated.  So every seed meters the same ledger, and
    what differs between two records of one workload is the host.
    """
    return payload_seed(0, workload, stream)


def signature(ledger) -> Tuple[Tuple[str, int, int], ...]:
    """A ledger as comparable data: (phase name, rounds, messages)*."""
    return tuple((p.name, p.rounds, p.messages) for p in ledger.phases())


def part_aggregates(partition, values: Sequence[object], agg) -> Dict[int, object]:
    """Sequential per-part fold: the oracle every PA answer is held to."""
    return {
        pid: agg.fold(values[v] for v in members)
        for pid, members in enumerate(partition.members)
    }


def pa_output_ok(partition, result, expected: Dict[int, object], nodes: Sequence[int]) -> Optional[str]:
    """None if a PA result matches ``expected``; else what differs."""
    if dict(result.aggregates) != expected:
        return "part aggregates differ from the sequential fold"
    for v in nodes:
        if result.value_at_node[v] != expected[partition.part_of[v]]:
            return f"value_at_node[{v}] differs from its part's aggregate"
    return None


def sample_nodes(n: int, seed: int) -> List[int]:
    """The nodes whose ``value_at_node`` a check reads (a fixed stride)."""
    step = max(1, n // NODE_SAMPLES)
    return list(range(seed % step, n, step))


@dataclass
class Outcome:
    """What one checked op reports.

    ``signature`` is everything that must repeat bit for bit between
    reps of one run; ``layers`` are per-op per-layer numbers (counts are
    exact, times are this op's own).
    """

    ok: bool
    why: str
    signature: tuple
    rounds: int
    messages: int
    layers: Dict[str, float] = field(default_factory=dict)


class TimedSession(PASession):
    """A ``PASession`` whose layer calls sit inside benchmark-side spans.

    Only the traced pass builds one; the untraced pass uses ``PASession``
    itself.  Spans nest where the session calls itself (an incremental
    prepare that falls back to a full one), which is what the self-time
    arithmetic in :func:`layer_times` is for.
    """

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        self._perf = tracer
        with tracer.span("tree.build", "perf"):
            super().__init__(*args, **kwargs)

    def prepare(self, *args, **kwargs):
        with self._perf.span("session.prepare", "perf"):
            return super().prepare(*args, **kwargs)

    def prepare_incremental(self, *args, **kwargs):
        with self._perf.span("session.incremental", "perf"):
            return super().prepare_incremental(*args, **kwargs)

    def solve(self, *args, **kwargs):
        with self._perf.span("session.solve", "perf"):
            return super().solve(*args, **kwargs)

    def solve_many(self, *args, **kwargs):
        with self._perf.span("session.solve", "perf"):
            return super().solve_many(*args, **kwargs)

    def apply_edge_updates(self, *args, **kwargs):
        with self._perf.span("session.edge_updates", "perf"):
            return super().apply_edge_updates(*args, **kwargs)


def session_counts(stats) -> Dict[str, float]:
    """``session.*`` count metrics from a ``SessionStats``."""
    incremental = (
        stats.cache_hits + stats.coarsenings + stats.refinements + stats.repairs
    )
    requests = incremental + stats.prepares + stats.graph_rebuilds
    return {
        "session.prepares": stats.prepares,
        "session.cache_hits": stats.cache_hits,
        "session.coarsenings": stats.coarsenings,
        "session.refinements": stats.refinements,
        "session.repairs": stats.repairs,
        "session.rebuilds": stats.rebuilds + stats.graph_rebuilds,
        "session.hit_ratio": incremental / requests if requests else 0.0,
    }


def layer_times(events: List[Dict], op_wall_s: float) -> Dict[str, float]:
    """Per-layer seconds of one traced op, from its event list.

    Benchmark-side spans (``cat == "perf"``) are nested by interval; a
    span's self time is its duration minus the benchmark-side spans
    directly inside it.  The program's own ``engine.phase`` spans are
    the kernel side of the kernel-vs-Python split: whatever part of the
    benchmark-side spans they do not cover is orchestrator Python.
    """
    perf = sorted(
        (e for e in events if e["ph"] == "X" and e["cat"] == "perf"),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    covered = 0.0
    stack: List[Dict] = []
    for e in perf:
        while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
            stack.pop()
        dur = e["dur"] / 1e6
        total[e["name"]] = total.get(e["name"], 0.0) + dur
        self_time[e["name"]] = self_time.get(e["name"], 0.0) + dur
        if stack:
            parent = stack[-1]["name"]
            self_time[parent] -= dur
        else:
            covered += dur
        stack.append(e)

    phases = [e for e in events if e["ph"] == "X" and e["cat"] == "engine.phase"]
    phase_s = sum(e["dur"] for e in phases) / 1e6
    phase_msgs = sum(e["args"].get("messages", 0) for e in phases)
    out = {
        "engine.phase_s": phase_s,
        "engine.ticks": sum(e["args"].get("ticks", 0) for e in phases),
        "engine.ns_per_msg": 1e9 * phase_s / phase_msgs if phase_msgs else 0.0,
        "orchestrator.self_s": max(0.0, covered - phase_s),
        "shortcut.verify_s": sum(
            e["dur"] for e in phases if "verify" in e["name"]
        ) / 1e6,
        "obs.events": len(events),
        "obs.span_coverage": covered / op_wall_s if op_wall_s else 0.0,
    }
    for name, metrics in SPAN_TOTAL.items():
        for metric in metrics if name in total else ():
            out[metric] = total[name]
    for name, metric in SPAN_SELF.items():
        if name in self_time:
            out[metric] = self_time[name]
    return out


def host_calibration() -> float:
    """Seconds of a fixed numpy + pure-Python loop, min of 5.

    Printed with every traced record so records from different machines
    can be normalised; never used to rescale a gated metric.
    """
    import numpy as np

    base = np.arange(1_000_000, dtype=np.int64)[::-1]
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        order = np.argsort(base, kind="stable")
        acc = int(np.add.reduce(base[order] * 3))
        for i in range(200_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def reference_loop(iterations: int = 800_000) -> float:
    """Seconds a fixed pure-Python loop takes right now: the host's speed.

    The host this runs on is shared, and its speed moves by a quarter for
    minutes at a time: over eight minutes this loop took 0.077 to 0.33 s,
    tenth to ninetieth percentile 0.087 to 0.127 s, and CPU time moved
    with wall time.  A rep's wall divided by the wall of this loop run
    right after it repeats from run to run two to three times better than
    the wall itself, so ``op_wall_s`` and ``setup_s`` are stated at a
    fixed host speed: wall x ``perf_report.REFERENCE_LOOP_S`` / loop wall.
    Integer arithmetic, dict stores and tuple allocation: what the
    program's own Python does most.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc += i * i
        table[i & 4095] = (acc, i)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Measured:
    """The ops of one measuring loop (one mode: untraced or traced)."""

    walls: List[float] = field(default_factory=list)
    #: ``reference_loop()`` right after each op of ``walls``.
    refs: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    last_tracer: Optional[Tracer] = None


def measure(wl, state, seconds: float, min_ops: int, traced: bool = False) -> Measured:
    """Closed loop, one client: ops back to back for ``seconds``.

    The check of an op runs before the next op starts but outside its
    timed region.  An op fails on an exception, a wrong output, or a
    signature that differs from the first op's.
    """
    got = Measured()
    first_sig = None
    deadline = time.perf_counter() + seconds
    while got.attempted < min_ops or time.perf_counter() < deadline:
        got.attempted += 1
        gc.collect()  # every op starts from the same collector state
        tracer = Tracer() if traced else None
        try:
            if traced:
                with use_tracer(tracer):
                    start = time.perf_counter()
                    raw = wl.run_op_traced(state, tracer)
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                raw = wl.run_op(state)
                wall = time.perf_counter() - start
            ref = reference_loop()
            outcome = wl.check(state, raw, wall)
        except Exception as exc:  # an op that raises is a failed op
            got.failures.append(f"exception: {type(exc).__name__}: {exc}")
            continue
        got.walls.append(wall)
        got.refs.append(ref)
        got.outcomes.append(outcome)
        if first_sig is None:
            first_sig = outcome.signature
        if not outcome.ok:
            got.failures.append(outcome.why)
        elif outcome.signature != first_sig:
            got.failures.append("ledger differs from the first rep's")
        layers = dict(outcome.layers)
        if traced:
            layers.update(layer_times(tracer.events, wall))
            if layers.get("wave.messages"):
                layers["wave.ns_per_msg"] = (
                    1e9 * layers["wave.solve_s"] / layers["wave.messages"]
                )
            got.last_tracer = tracer
        got.layers.append(layers)
    return got


def sig_digest(sig: tuple) -> str:
    return hashlib.sha1(repr(sig).encode()).hexdigest()


def run_child(wl, seed: int, seconds: float, trace: bool, spawned_at: float,
              min_ops: int = 2, trace_path: Optional[str] = None,
              size: Optional[Dict] = None) -> Dict:
    """One fresh process's share of a run: set up once, then measure.

    ``setup_s`` runs from ``spawned_at`` (the parent's clock reading just
    before it started this interpreter) to the first timed op: imports,
    input generation, expected answers and one warm-up op, less the two
    reference loops that bracket it.  With
    ``trace`` the measuring time is split between an untraced loop (the
    base of ``obs.trace_overhead_ratio``) and the traced loop.  ``size``
    replaces the measured size (the smoke test's way in).
    """
    setup_refs = [reference_loop()]
    state = wl.build(seed, size or wl.FULL)
    try:
        # Warm up on the measured instance itself: the first op of a
        # process at full size runs 15-40 % slow (heap growth, first-touch
        # page faults), which a small instance does not pay off.  It is
        # checked like any other op but its wall is not kept.
        warm = measure(wl, state, 0.0, 1)
        setup_refs += warm.refs
        setup_s = time.time() - spawned_at - sum(setup_refs)

        plain = measure(wl, state, seconds / 3 if trace else seconds, min_ops)
        traced = (
            measure(wl, state, 2 * seconds / 3, min_ops, traced=True)
            if trace else Measured()
        )
    finally:
        teardown(wl, state)

    ops = warm.outcomes + plain.outcomes + traced.outcomes
    sigs = {sig_digest(o.signature) for o in ops}
    first = ops[0] if ops else None
    record = {
        "setup_s": setup_s,
        "setup_ref_s": sum(setup_refs) / len(setup_refs),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": warm.attempted + plain.attempted + traced.attempted,
        "failures": warm.failures + plain.failures + traced.failures,
        "walls": plain.walls,
        "refs": plain.refs,
        "signature": sorted(sigs),
        "rounds": first.rounds if first else 0,
        "messages": first.messages if first else 0,
        "n": state.net.n,
        "m": state.net.m,
        "ecc0": state.net.eccentricity(0),
    }
    if trace:
        layers = median_layers(traced.layers)
        layers.update(median_layers(plain.layers))
        layers.update(state.timings)
        layers["host.calib_s"] = host_calibration()
        record["layers"] = layers
        record["traced_walls"] = traced.walls
        record["traced_refs"] = traced.refs
        if trace_path and traced.last_tracer is not None:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            traced.last_tracer.write_chrome(trace_path)
    return record


def teardown(wl, state) -> None:
    """Stop what ``wl.build`` started, if the workload has anything to stop."""
    stop = getattr(wl, "teardown", None)
    if stop is not None:
        stop(state)
