"""The schedule-fuzzing differential harness.

Each :class:`FuzzCase` is fully determined by a ``(graph_seed,
schedule_seed)`` pair plus its explicit parameters, so any failure is
replayable from the one line the harness prints.  A case runs one
workload (PA, MST or connected components) five ways — on the scalar
synchronous engine, on the vectorized (array) synchronous engine, and
on the async engine under the delay-0, seeded-random, adversarial
slow-edge and FIFO schedules — and demands:

* **output equivalence** everywhere: identical per-part aggregates and
  per-node values (PA), identical MST edge sets (also cross-checked
  against Kruskal), identical component labels;
* **delay-0 ledger parity**: the async engine under
  :class:`~repro.congest.schedule.SynchronousSchedule` must reproduce
  the scalar synchronous engine's phase log bit for bit — names,
  rounds, messages, ticks and payload bits per phase;
* **scalar/array ledger parity**: the array engine must reproduce the
  scalar engine's phase log bit for bit too — the vectorized core is a
  pure implementation change, never a cost-model change.

A phase log is ``(name, rounds, messages, ticks, bits)`` per phase.  A
PA case solves twice on one setup — the first solve learns the wave
forest (unless the verification that accepted the build already did),
the second runs the one all-reduce pass every reused solve runs — on
every axis, the fault axis included.  So that the engine axis sees
what the array kernels' two folds see, a PA case draws its aggregation
(:data:`PA_AGGS`): ``SUM`` over ints (the column fold); ``MIN_TUPLE``
over ``(value, uid)`` pairs with every fifth node ``None``; a three-way
``solve_many`` product; and a deliberately *order-sensitive* tuple
concatenation, audits off, which only an engine that folds in the scalar
order — not merely an equivalent one — gets right.  An MST case draws
the session's ``reuse`` opt-in and the merging rule (``rank`` /
``star``, whatever the mode), so projections and both
star joinings reach the same axes — the fault axis included, where most
solves run on a route their setup learned earlier and a crash between two
of them has no token wave to be caught by, and where a lost seed hop or
target answer must leave a fragment where it is.

A third axis injects **faults**: every other PA/MST case derives a
seeded, recoverable :class:`~repro.congest.FaultPlan` (crash/recover
and/or bounded message loss) purely from a ``fault_seed``, runs the
workload through the :class:`~repro.runtime.RecoveryDriver` (heartbeat
detection, Algorithm 9 re-election, recompute-until-clean), and demands
the recovered output equal the fault-free one.  The full case identity
is then the ``(graph_seed, schedule_seed, fault_seed)`` triple.

Failures shrink before being reported: the graph is re-drawn at smaller
sizes (same seeds) while the failure persists, then the failing axis is
isolated — the fault axis is dropped if the failure survives without
it (or the other axes are stripped if it does not), the drawn
aggregation, session opt-in and merging rule fall back to ``SUM`` on a
plain session under the mode's own rule if the failure survives that, then either a single schedule kind or the
scalar-vs-array engine pair with no delayed schedules at all — so the
replay line names the smallest configuration the harness could still
break.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..algorithms.components import cc_labeling
from ..algorithms.mst import RANK, STAR, minimum_spanning_tree
from ..analysis.reference import kruskal_mst
from ..congest.faults import FaultPlan
from ..congest.schedule import (
    Schedule,
    SynchronousSchedule,
    _mix,
    make_schedule,
)
from ..core.aggregation import MIN, MIN_TUPLE, SUM, Aggregation
from ..core.pa import (
    DETERMINISTIC,
    RANDOMIZED,
    PASolver,
    product_aggregation,
    solve_pa,
)
from ..graphs.generators import (
    grid_2d,
    preferential_attachment,
    random_connected,
    random_regular,
)
from ..graphs.partitions import random_connected_partition
from ..graphs.weights import with_distinct_weights
from ..runtime import PASession

ALGORITHMS = ("pa", "mst", "components")
GRAPH_KINDS = ("grid", "random", "regular", "pref-attach")
#: Non-trivial schedules every case must survive (delay-0 runs always).
DELAYED_KINDS = ("random", "slow-edge", "fifo")
#: Synchronous engine implementations; "scalar" is the reference.
ENGINE_IMPLS = ("scalar", "array")
#: Recoverable fault mixes a case may inject (shrinking may drop them).
FAULT_KINDS = ("crash", "loss", "crash-loss")
#: What a PA case aggregates (see the module docstring); "sum" is the
#: plain case shrinking falls back to.
PA_AGGS = ("sum", "min-tuple", "product", "concat")

#: Tuple concatenation: associative, *not* commutative.  Every engine
#: delivers a node's round in one canonical order, so all of them must
#: agree on it; values grow with the part, so its cases run audits off.
CONCAT = Aggregation("concat", lambda a, b: a + b)


@dataclass(frozen=True)
class FuzzCase:
    """One replayable differential check."""

    graph_seed: int
    schedule_seed: int
    n: int = 24
    algorithm: str = "pa"
    mode: str = RANDOMIZED
    graph_kind: str = "random"
    #: Schedule kinds to test beyond delay-0 (shrinking narrows this).
    schedule_kinds: Tuple[str, ...] = DELAYED_KINDS
    #: Sync engine implementations to compare (first one is the baseline;
    #: shrinking may drop the axis to ("scalar",) if it is not at fault).
    engine_impls: Tuple[str, ...] = ENGINE_IMPLS
    #: Fault axis: which recoverable fault mixes to inject (empty = none)
    #: and the seed the FaultPlan is derived from.
    fault_seed: int = 0
    fault_kinds: Tuple[str, ...] = ()
    #: What a PA case aggregates: one of :data:`PA_AGGS`.
    pa_agg: str = "sum"
    #: The ``PASession`` opt-in and the merging rule (``None``: the
    #: mode's default) an MST case runs with.
    reuse: bool = False
    merging: Optional[str] = None

    def replay_command(self) -> str:
        cmd = (
            "python -m repro.fuzz --replay "
            f"{self.graph_seed}:{self.schedule_seed}:{self.fault_seed} "
            f"--n {self.n} "
            f"--algorithm {self.algorithm} --mode {self.mode} "
            f"--graph {self.graph_kind} "
            f"--schedules {','.join(self.schedule_kinds)} "
            f"--engines {','.join(self.engine_impls)}"
        )
        if self.fault_kinds:
            cmd += f" --faults {','.join(self.fault_kinds)}"
        if self.pa_agg != "sum":
            cmd += f" --pa-agg {self.pa_agg}"
        if self.reuse:
            cmd += " --reuse"
        if self.merging:
            cmd += f" --merging {self.merging}"
        return cmd


@dataclass
class FuzzFailure:
    """A (shrunk) failing case plus what went wrong."""

    case: FuzzCase
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "graph_seed": self.case.graph_seed,
            "schedule_seed": self.case.schedule_seed,
            "n": self.case.n,
            "algorithm": self.case.algorithm,
            "mode": self.case.mode,
            "graph_kind": self.case.graph_kind,
            "schedule_kinds": list(self.case.schedule_kinds),
            "engine_impls": list(self.case.engine_impls),
            "fault_seed": self.case.fault_seed,
            "fault_kinds": list(self.case.fault_kinds),
            "pa_agg": self.case.pa_agg,
            "reuse": self.case.reuse,
            "merging": self.case.merging,
            "message": self.message,
            "replay": self.case.replay_command(),
        }


def case_for_index(base_seed: int, index: int, max_n: int = 36) -> FuzzCase:
    """The deterministic i-th case of a fuzz run (pure in its inputs)."""
    graph_seed = _mix(base_seed, index, 1) % (1 << 30)
    schedule_seed = _mix(base_seed, index, 2) % (1 << 30)
    algorithm = ALGORITHMS[index % len(ALGORITHMS)]
    # Mode is drawn from an independent hash, NOT from the same modulus
    # as the algorithm rotation — otherwise deterministic mode would only
    # ever pair with one workload and the matrix would have blind cells.
    mode = DETERMINISTIC if _mix(base_seed, index, 5) % 3 == 2 else RANDOMIZED
    graph_kind = GRAPH_KINDS[_mix(base_seed, index, 3) % len(GRAPH_KINDS)]
    low = 10
    n = low + _mix(base_seed, index, 4) % max(1, max_n - low + 1)
    # MST runs three engine pipelines per Boruvka phase; keep it smaller.
    if algorithm == "mst":
        n = min(n, 28)
    # Fault axis: every other PA/MST case injects a seeded recoverable
    # FaultPlan (components has no recovery driver, so it stays clean).
    fault_seed = _mix(base_seed, index, 7) % (1 << 30)
    fault_kinds: Tuple[str, ...] = ()
    if algorithm in ("pa", "mst") and _mix(base_seed, index, 6) % 2 == 0:
        fault_kinds = (FAULT_KINDS[_mix(base_seed, index, 8) % len(FAULT_KINDS)],)
    pa_agg = "sum"
    if algorithm == "pa":
        pa_agg = PA_AGGS[_mix(base_seed, index, 9) % len(PA_AGGS)]
        if pa_agg == "concat":
            # Recovery re-elects leaders, which re-roots the wave trees:
            # an order-sensitive merge has no fault-free answer to match.
            fault_kinds = ()
    opt_ins = _mix(base_seed, index, 10) % 4 if algorithm == "mst" else 0
    merging = (RANK, STAR)[opt_ins >> 1] if algorithm == "mst" else None
    return FuzzCase(
        graph_seed=graph_seed, schedule_seed=schedule_seed, n=n,
        algorithm=algorithm, mode=mode, graph_kind=graph_kind,
        fault_seed=fault_seed, fault_kinds=fault_kinds,
        pa_agg=pa_agg, reuse=bool(opt_ins & 1), merging=merging,
    )


def build_network(case: FuzzCase):
    """The case's graph (weighted — MST needs it, the others ignore it)."""
    n = max(6, case.n)
    seed = case.graph_seed
    if case.graph_kind == "grid":
        cols = max(2, int(n ** 0.5))
        rows = max(2, n // cols)
        net = grid_2d(rows, cols, uid_seed=seed)
    elif case.graph_kind == "regular":
        degree = 3
        m = n if n * degree % 2 == 0 else n + 1
        net = random_regular(m, degree, seed=seed, uid_seed=seed)
    elif case.graph_kind == "pref-attach":
        net = preferential_attachment(n, attach=2, seed=seed, uid_seed=seed)
    else:
        net = random_connected(n, 0.08, seed=seed, uid_seed=seed)
    return with_distinct_weights(net, seed=seed)


def fault_plan_for(case: FuzzCase, n: int) -> Optional[FaultPlan]:
    """The case's seeded fault plan (None when the fault axis is off).

    Every plan is *recoverable* — crashes recover and losses stop — so
    the RecoveryDriver is always expected to converge; a case that does
    not is a finding, not an impossible ask.
    """
    if not case.fault_kinds:
        return None
    want_crash = any("crash" in kind for kind in case.fault_kinds)
    want_loss = any("loss" in kind for kind in case.fault_kinds)
    return FaultPlan.seeded(
        case.fault_seed, n,
        crashes=(1 + case.fault_seed % 2) if want_crash else 0,
        recover=True, crash_window=(3, 30), outage=(8, 30),
        loss_rate=(0.02 + (case.fault_seed % 5) * 0.02) if want_loss else 0.0,
        loss_window=(1, 40),
    )


def schedules_for(case: FuzzCase) -> List[Schedule]:
    """The delayed schedules of this case, all seeded replayably.

    Each kind's seed is derived from its *canonical* index, not its
    position in ``schedule_kinds`` — so a shrunk case that isolates one
    kind replays the exact same delays that kind drew in the full run.
    """
    out: List[Schedule] = []
    for kind in case.schedule_kinds:
        seed = _mix(case.schedule_seed, DELAYED_KINDS.index(kind)) % (1 << 30)
        out.append(
            make_schedule(
                kind, seed=seed,
                max_delay=1 + seed % 6,
                slow_fraction=0.15 + (seed % 4) * 0.1,
                slow_delay=2 + seed % 8,
            )
        )
    return out


def _phase_log(ledger) -> List[Tuple[str, int, int, int, int]]:
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


def pa_items(case: FuzzCase, net, values):
    """The ``(values, aggregation)`` pairs a PA case solves: one, or a
    batch of three for ``pa_agg == "product"``."""
    pairs = [
        None if v % 5 == 4 else (value, net.uid[v])
        for v, value in enumerate(values)
    ]
    return {
        "sum": [(values, SUM)],
        "min-tuple": [(pairs, MIN_TUPLE)],
        "product": [(values, SUM), (values, MIN), (pairs, MIN_TUPLE)],
        "concat": [([(value,) for value in values], CONCAT)],
    }[case.pa_agg]


def _answer(res) -> Tuple[Dict[int, object], List[object]]:
    return dict(res.aggregates), list(res.value_at_node)


def _run_workload(case: FuzzCase, net, partition, values,
                  schedule: Optional[Schedule] = None,
                  engine_impl: str = "scalar"):
    """Run the case's algorithm; return (output, ledger).

    ``schedule`` selects the asynchronous engine (``None`` = the
    synchronous one), ``engine_impl`` the synchronous loop — both are
    settings of the one :class:`PASolver` every workload runs on.
    """
    seed = case.graph_seed % 997
    audits = not (case.algorithm == "pa" and case.pa_agg == "concat")
    solver = PASolver(
        net, mode=case.mode, seed=seed, schedule=schedule,
        engine_impl=engine_impl, strict_bits=audits, strict_edges=audits,
    )
    if case.algorithm == "pa":
        # Two solves on one setup: the first learns the wave forest, the
        # second is the reused solve every later one is.
        items = pa_items(case, net, values)
        if len(items) == 1:
            res = solve_pa(
                net, partition, *items[0], mode=case.mode, seed=seed,
                solver=solver,
            )
            again = solver.solve(res.setup, *items[0], charge_setup=False)
            res.ledger.merge(again.ledger)
            return [_answer(r) for r in (res, again)], res.ledger
        setup = solver.prepare(partition)
        batches = [
            solver.solve_many(setup, items, charge_setup=not k)
            for k in range(2)
        ]
        batches[0].ledger.merge(batches[1].ledger)
        return [
            [_answer(res) for res in batch.per_agg] for batch in batches
        ], batches[0].ledger
    session = PASession(net, solver=solver, reuse=case.reuse)
    if case.algorithm == "mst":
        res = minimum_spanning_tree(
            net, mode=case.mode, seed=seed, merging=case.merging,
            session=session,
        )
        return res.output, res.ledger
    if case.algorithm == "components":
        subgraph = [e for i, e in enumerate(net.edges) if i % 3 != 0]
        res = cc_labeling(
            net, subgraph, mode=case.mode, seed=seed, session=session
        )
        return list(res.output), res.ledger
    raise ValueError(f"unknown algorithm {case.algorithm!r}")


def _recovered_pa(driver, case: FuzzCase, net, partition, values):
    """A PA case's two solves under the fault plan, each attempt preparing
    once: a batch runs as its product, unpacked per aggregation."""
    columns, aggs = zip(*pa_items(case, net, values))
    if len(aggs) == 1:
        column, agg = columns[0], aggs[0]
    else:
        column, agg = list(zip(*columns)), product_aggregation(aggs)
    seconds = []

    def attempt(k, solver):
        first = driver._pa_attempt(k, solver, partition, column, agg)
        seconds.append(
            solver.solve(first.setup, column, agg, charge_setup=False)
        )
        first.ledger.merge(seconds[-1].ledger)
        return first

    first = driver._attempts("pa", attempt)
    # The clean attempt is the last; a retry's setup numbers the parts
    # its own way.
    pid_of = [
        partition.part_of[members[0]]
        for members in first.setup.partition.members
    ]
    again = seconds[-1]
    answers = [
        _answer(first),
        (
            {pid_of[sid]: value for sid, value in again.aggregates.items()},
            list(again.value_at_node),
        ),
    ]
    if len(aggs) == 1:
        return answers
    return [
        [
            (
                {pid: value[k] for pid, value in aggregates.items()},
                [value[k] for value in at_node],
            )
            for k in range(len(aggs))
        ]
        for aggregates, at_node in answers
    ]


def run_case(case: FuzzCase) -> Optional[str]:
    """Run one differential check; None on success, else what failed."""
    try:
        net = build_network(case)
        partition = random_connected_partition(
            net, max(2, min(6, net.n // 5)), seed=case.graph_seed
        )
        values = [(v * 7 + 3) % 101 for v in range(net.n)]

        base_out, base_ledger = _run_workload(case, net, partition, values)
        if case.algorithm == "mst" and base_out != frozenset(kruskal_mst(net)):
            return "sync MST does not match the Kruskal oracle"

        for impl in case.engine_impls:
            if impl == "scalar":
                continue  # the baseline above
            impl_out, impl_ledger = _run_workload(
                case, net, partition, values, engine_impl=impl
            )
            if impl_out != base_out:
                return f"{impl} engine output differs from the scalar engine"
            if _phase_log(impl_ledger) != _phase_log(base_ledger):
                scalar_log = _phase_log(base_ledger)
                impl_log = _phase_log(impl_ledger)
                diff = next(
                    (p for p in zip(scalar_log, impl_log) if p[0] != p[1]),
                    (("<length>", len(scalar_log)),
                     ("<length>", len(impl_log))),
                )
                return (
                    f"scalar-vs-{impl} ledger parity broken: "
                    f"{diff[0]} != {diff[1]}"
                )

        zero_out, zero_ledger = _run_workload(
            case, net, partition, values, schedule=SynchronousSchedule()
        )
        if zero_out != base_out:
            return "delay-0 async output differs from the synchronous engine"
        if _phase_log(zero_ledger) != _phase_log(base_ledger):
            sync_log, async_log = _phase_log(base_ledger), _phase_log(zero_ledger)
            diff = next(
                (pair for pair in zip(sync_log, async_log) if pair[0] != pair[1]),
                (("<length>", len(sync_log)), ("<length>", len(async_log))),
            )
            return f"delay-0 ledger parity broken: {diff[0]} != {diff[1]}"

        for schedule in schedules_for(case):
            sched_out, _ = _run_workload(
                case, net, partition, values, schedule=schedule
            )
            if sched_out != base_out:
                return f"output diverged under schedule {schedule.name}"

        if case.fault_kinds and case.algorithm in ("pa", "mst"):
            from ..runtime.recovery import RecoveryDriver

            plan = fault_plan_for(case, net.n)
            driver = RecoveryDriver(
                net, faults=plan, mode=case.mode,
                seed=case.graph_seed % 997,
                max_attempts=12, max_wait_windows=160,
            )
            if case.algorithm == "pa":
                fault_out = _recovered_pa(driver, case, net, partition, values)
            else:
                res = driver.minimum_spanning_tree(
                    reuse=case.reuse, merging=case.merging
                )
                fault_out = res.output
            if fault_out != base_out:
                return (
                    "recovered output diverged from the fault-free run "
                    f"under faults {','.join(case.fault_kinds)}"
                )
        return None
    except Exception as exc:  # a crash is a finding, not a harness error
        return f"{type(exc).__name__}: {exc}"


def shrink_case(
    case: FuzzCase,
    check: Callable[[FuzzCase], Optional[str]] = run_case,
) -> Tuple[FuzzCase, str]:
    """Minimize a failing case; returns (smallest failing case, message).

    Five shrink axes, all preserving the replay seeds: the graph size
    is walked down while the failure persists; the fault axis is
    dropped if the failure reproduces without it, else the other
    optional axes are stripped so only the seed triple remains; the
    drawn aggregation, session opt-in and merging rule are dropped if the
    failure reproduces on SUM over a plain session; then —
    if the case still fails with the engine axis dropped (scalar only)
    the engine comparison was not at fault and a single failing
    schedule kind is sought; otherwise the divergence is the
    scalar-vs-array engine pair, and the delayed schedules are dropped
    instead if the engine pair alone still reproduces it.
    """
    message = check(case)
    if message is None:
        raise ValueError("shrink_case requires a failing case")
    # Axis 1: graph size (halving, then linear refinement).
    current = case
    n = case.n
    while n > 8:
        candidate = replace(current, n=max(8, n // 2))
        failed = check(candidate)
        if failed is None:
            break
        current, message, n = candidate, failed, candidate.n
    step = max(1, current.n // 4)
    while step and current.n > 8:
        candidate = replace(current, n=max(8, current.n - step))
        failed = check(candidate)
        if failed is not None and candidate.n < current.n:
            current, message = candidate, failed
        else:
            step //= 2
    # Axis 1.5: is the fault axis guilty?  If the failure survives with
    # the faults dropped they were innocent — shed them and let the
    # later axes isolate further.  If it does not, the faults are
    # required: strip the *other* optional axes instead so the replay
    # line is the bare (graph, schedule, fault) seed triple.
    if current.fault_kinds:
        candidate = replace(current, fault_kinds=())
        failed = check(candidate)
        if failed is not None:
            current, message = candidate, failed
        else:
            candidate = replace(
                current, engine_impls=("scalar",), schedule_kinds=()
            )
            failed = check(candidate)
            if failed is not None:
                current, message = candidate, failed
    # Axis 1.75: the workload's drawn shape.  If the failure survives
    # SUM over ints on a plain session, that is the simpler replay line.
    plain = replace(current, pa_agg="sum", reuse=False, merging=None)
    if plain != current:
        failed = check(plain)
        if failed is not None:
            current, message = plain, failed
    # Axis 2: which engine diverged?  If the failure survives without the
    # array engine, the engine axis is innocent; otherwise keep the
    # engine pair and try dropping the delayed schedules entirely.
    if len(current.engine_impls) > 1:
        candidate = replace(current, engine_impls=("scalar",))
        failed = check(candidate)
        if failed is not None:
            current, message = candidate, failed
        else:
            candidate = replace(current, schedule_kinds=())
            failed = check(candidate)
            if failed is not None:
                current, message = candidate, failed
    # Axis 3: isolate a single failing schedule kind.
    for kind in current.schedule_kinds:
        candidate = replace(current, schedule_kinds=(kind,))
        failed = check(candidate)
        if failed is not None:
            current, message = candidate, failed
            break
    return current, message


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    runs: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    runs: int = 10,
    base_seed: int = 0,
    max_n: int = 36,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``runs`` seeded differential cases; shrink and report failures."""
    report = FuzzReport(runs=runs)
    for index in range(runs):
        case = case_for_index(base_seed, index, max_n=max_n)
        message = run_case(case)
        if message is None:
            if log:
                faults = ",".join(case.fault_kinds) or "none"
                shape = {
                    "pa": case.pa_agg,
                    "mst": f"reuse={int(case.reuse)},{case.merging}",
                }.get(case.algorithm)
                log(
                    f"[fuzz] ok   #{index} {case.algorithm}"
                    f"{f'[{shape}]' if shape else ''}/{case.mode} "
                    f"{case.graph_kind} n={case.n} faults={faults} "
                    f"seeds={case.graph_seed}:{case.schedule_seed}:"
                    f"{case.fault_seed}"
                )
            continue
        if shrink:
            case, message = shrink_case(case)
        report.failures.append(FuzzFailure(case=case, message=message))
        if log:
            log(
                f"[fuzz] FAIL #{index}: {message}\n"
                f"        replay: {case.replay_command()}"
            )
    return report
