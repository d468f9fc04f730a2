"""Self-healing PA/MST: heartbeat failure detection + recovery driver.

This is the runtime that makes the fault plans of
:mod:`repro.congest.faults` survivable.  A :class:`RecoveryDriver` owns
one fault-injecting :class:`~repro.congest.AsyncEngine` — with its
global pulse clock, synchronizer overhead ledger and per-phase fault
log — and runs workloads on it optimistically:

1. **Attempt** the workload.  The engine's fault log is the transport
   layer's honest knowledge: if any phase of the attempt observed an
   injection (a suppressed activation, a dropped payload, a cut safe
   wave), the attempt is *tainted* — its output cannot be trusted even
   if it happened to complete — and its entire cost is charged to the
   driver's :attr:`~RecoveryDriver.recovery_overhead` ledger.  An
   attempt that dies mid-flight (fault fallout surfacing as an
   exception) is tainted the same way; an exception with *no* observed
   faults is a genuine bug and propagates.
2. **Detect**: after a tainted attempt the driver runs heartbeat
   windows (modeled on timeout-driven round managers: every live node
   beacons its neighbors each pulse and suspects a neighbor it has not
   heard from within a timeout) until a window is clean — no suspects
   and no transport-level injections.  Crashed nodes stop beaconing, so
   their neighbors suspect them within ``timeout`` pulses; recovered
   nodes resume beaconing and are unsuspected.  Window cost is charged
   to the recovery ledger.
3. **Re-elect and recompute**: PA retries run the paper's Algorithm 9
   (:func:`repro.core.no_leader.solve_pa_without_leaders`) — leaders
   are re-elected from scratch by star-joining coarsening, so a crashed
   leader cannot poison the retry.  MST retries rebuild the global BFS
   tree and leader (the :class:`~repro.core.pa.PASolver` constructor's
   candidate election, drawn from the attempt's seed); Boruvka itself
   restarts from singleton parts, whose leaders are trivially the nodes
   themselves.

Accounting rule (the load-bearing one, mirroring the synchronizer-tax
rule of PR 5): the **main ledger carries exactly what the fault-free
algorithm would have cost** — the successful attempt's tree, setup and
wave phases.  Everything recovery-specific lands on
:attr:`RecoveryDriver.recovery_overhead`: every heartbeat window, every
tainted attempt in full, and the Algorithm 9 re-election rounds
(``alg9_*`` phases, except the final setup, which the fault-free path
pays as its ordinary setup).  With no faults the first attempt is clean
and the driver returns its result untouched — bit-for-bit the ledger of
running the workload directly on the same engine (pinned by
``tests/runtime/test_recovery.py`` and ``benchmarks/bench_faults.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..congest.async_engine import AsyncEngine
from ..congest.engine import Program
from ..congest.faults import FaultPlan
from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network
from ..congest.schedule import Schedule
from ..obs.tracer import current_tracer
from ..core.aggregation import Aggregation
from ..core.no_leader import solve_pa_without_leaders
from ..core.pa import PAResult, PASolver, RANDOMIZED, solve_pa
from ..graphs.partitions import Partition


@dataclass(frozen=True)
class HeartbeatConfig:
    """Shape of one failure-detection window.

    ``window`` pulses per window; every live node beacons all neighbors
    each ``interval`` pulses and suspects a neighbor silent for more
    than ``timeout`` pulses.  ``timeout`` must leave room for detection
    within the window (``timeout + 2 <= window``).
    """

    window: int = 8
    interval: int = 1
    timeout: int = 3

    def __post_init__(self) -> None:
        if self.window < 2 or self.interval < 1 or self.timeout < 1:
            raise ValueError("window >= 2, interval >= 1, timeout >= 1")
        if self.timeout + 2 > self.window:
            raise ValueError(
                "timeout + 2 must be <= window (a crash at the window's "
                "start must be suspectable before the window ends)"
            )


class _HeartbeatProgram(Program):
    """Beacon/suspect failure detection (one window).

    Every node holds a local clock (a ``wake_at`` per pulse of the
    window — so a crash-recovered node *resumes* beaconing at its next
    surviving timer), beacons its neighbors each ``interval`` pulses,
    and tracks the last pulse it heard each neighbor.  Suspicion is
    re-evaluated every pulse: silent past the timeout -> suspected,
    heard again (recovery) -> unsuspected.  The final per-observer sets
    are the window's verdict.
    """

    name = "recovery:heartbeat"

    def __init__(self, net: Network, cfg: HeartbeatConfig) -> None:
        self.net = net
        self.cfg = cfg
        self.last_heard: List[Dict[int, int]] = [{} for _ in range(net.n)]
        self.suspected: List[Set[int]] = [set() for _ in range(net.n)]

    def on_start(self, ctx) -> None:
        for v in range(self.net.n):
            ctx.wake(v)
            for p in range(2, self.cfg.window + 1):
                ctx.wake_at(v, p)

    def on_node(self, ctx, v: int, inbox) -> None:
        t = ctx.tick
        heard = self.last_heard[v]
        for src, _beacon in inbox:
            heard[src] = t
        cfg = self.cfg
        if t < cfg.window and (t - 1) % cfg.interval == 0:
            for nb in self.net.neighbors[v]:
                ctx.send(v, nb, 0)
        suspected = self.suspected[v]
        for nb in self.net.neighbors[v]:
            if t - heard.get(nb, 0) > cfg.timeout:
                suspected.add(nb)
            else:
                suspected.discard(nb)

    def suspects(self) -> Set[int]:
        out: Set[int] = set()
        for per_observer in self.suspected:
            out |= per_observer
        return out


@dataclass
class RecoveryStats:
    """What the driver did across one or more workloads."""

    attempts: int = 0
    tainted_attempts: int = 0
    heartbeat_windows: int = 0
    reelections: int = 0
    last_suspects: Tuple[int, ...] = ()


class RecoveryExhaustedError(RuntimeError):
    """The driver ran out of attempts (or stability windows).

    Raised when ``max_attempts`` tainted attempts pass without a clean
    one, or the network never yields a clean heartbeat window within
    ``max_wait_windows`` — which happens exactly when the fault plan is
    not recoverable (``FaultPlan.clear_after is None`` with a victim the
    workload needs, or an outage longer than the driver's patience).
    """

    def __init__(self, stats: RecoveryStats, detail: str) -> None:
        super().__init__(
            f"recovery exhausted after {stats.attempts} attempt(s) and "
            f"{stats.heartbeat_windows} heartbeat window(s): {detail}"
        )
        self.stats = stats


class RecoveryDriver:
    """Run PA/MST to a *trusted* result on a fault-injecting engine.

    One driver = one :class:`~repro.congest.AsyncEngine` (with an
    optional :class:`~repro.congest.FaultPlan` and any delivery
    schedule), shared across attempts so the global pulse clock — the
    coordinate system of the fault plan — advances monotonically through
    attempts and heartbeat windows alike.  See the module docstring for
    the attempt/detect/re-elect loop and the accounting rule.
    """

    def __init__(
        self,
        net: Network,
        faults: Optional[FaultPlan] = None,
        schedule: Optional[Schedule] = None,
        mode: str = RANDOMIZED,
        seed: int = 0,
        max_attempts: int = 8,
        max_wait_windows: int = 64,
        strict_bits: bool = True,
        strict_edges: bool = True,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.net = net
        self.mode = mode
        self.seed = seed
        self.heartbeat = HeartbeatConfig()
        self.max_attempts = max_attempts
        self.max_wait_windows = max_wait_windows
        self.engine = AsyncEngine(
            net, schedule=schedule, faults=faults,
            strict_bits=strict_bits, strict_edges=strict_edges,
        )
        #: Detection + re-election + recompute tax, separate from every
        #: workload ledger (mirrors ``AsyncEngine.overhead``).
        self.recovery_overhead = CostLedger(stream="recovery")
        self.stats = RecoveryStats()

    # -- shared machinery ------------------------------------------------
    @property
    def overhead(self) -> CostLedger:
        """The engine's synchronizer tax (virtual time / control msgs)."""
        return self.engine.overhead

    def _faults_since(self, mark: int) -> bool:
        return any(r.affected for r in self.engine.fault_log[mark:])

    def run_heartbeat_window(self) -> Tuple[bool, Set[int]]:
        """One detection window; returns ``(clean, suspects)``.

        Clean means the protocol suspected nobody *and* the transport
        observed no injections during the window — either signal alone
        (a not-yet-timed-out crash, a stalled cut) keeps the driver
        waiting.  The window's rounds/messages are charged to
        :attr:`recovery_overhead`.
        """
        tracer = current_tracer()
        start_us = tracer.now_us() if tracer.enabled else 0
        program = _HeartbeatProgram(self.net, self.heartbeat)
        mark = len(self.engine.fault_log)
        stats = self.engine.run(
            program, max_ticks=self.heartbeat.window + 2,
            name="recovery:heartbeat",
        )
        self.recovery_overhead.charge(stats)
        self.stats.heartbeat_windows += 1
        suspects = program.suspects()
        self.stats.last_suspects = tuple(sorted(suspects))
        clean = not suspects and not self._faults_since(mark)
        if tracer.enabled:
            tracer.complete(
                "recovery.heartbeat_window",
                "recovery",
                start_us,
                {
                    "clean": clean,
                    "suspects": len(suspects),
                    "rounds": stats.rounds,
                    "messages": stats.messages,
                },
            )
        return clean, suspects

    def _await_stability(self, detail: str) -> None:
        for _ in range(self.max_wait_windows):
            clean, _suspects = self.run_heartbeat_window()
            if clean:
                return
        raise RecoveryExhaustedError(
            self.stats,
            f"{detail}; no clean heartbeat window in "
            f"{self.max_wait_windows} tries (suspects: "
            f"{list(self.stats.last_suspects)})",
        )

    def _charge_aborted(self, attempt: int, overhead_mark: int) -> None:
        """Cost of an attempt that died mid-phase, recovered from the
        engine's per-phase overhead records (pulses and payloads of the
        work actually driven — the phase never completed, so these are
        the honest observable costs)."""
        for rec in self.engine.overhead_log[overhead_mark:]:
            self.recovery_overhead.charge_local(
                f"attempt{attempt}:{rec.name}",
                rounds=rec.pulses, messages=rec.payload_messages,
            )

    def _split_reelection(self, ledger: CostLedger, attempt: int) -> CostLedger:
        """Split a clean retry's ledger: re-election phases (``alg9_*``
        except the final setup) to the recovery ledger, everything the
        fault-free path would also pay — tree, final setup, waves — to the
        returned main ledger.

        A pure re-attribution of already-charged phases, so it uses
        ``record`` throughout: every phase was traced when the retry
        first charged it, and re-emitting here would double count."""
        main = CostLedger()
        for p in ledger.phases():
            if p.name.startswith("alg9_") and not p.name.startswith(
                "alg9_final_setup:"
            ):
                self.recovery_overhead.record(
                    replace(p, name=f"reelect{attempt}:{p.name}")
                )
            else:
                main.record(p)
        return main

    def _attempts(self, workload: str, run: Callable[[int, PASolver], object]):
        """The attempt / taint / await loop, once for every workload.

        ``run(attempt, solver)`` runs the workload on a solver built for
        the attempt — a fresh BFS tree and elected leader on the shared
        engine, seed ``self.seed + attempt`` — and returns a result whose
        ``ledger`` carries that solver's tree ledger under ``tree:``, so a
        tainted attempt's whole cost is one merge under ``attempt{k}:``.
        Every attempt after the first is a re-election, counted and traced
        where it starts.  Returns the first trusted result.
        """
        detail = "no attempts made"
        tracer = current_tracer()
        for attempt in range(self.max_attempts):
            self.stats.attempts += 1
            fault_mark = len(self.engine.fault_log)
            overhead_mark = len(self.engine.overhead_log)
            attempt_us = tracer.now_us()
            if attempt:
                self.stats.reelections += 1
                tracer.instant("reelection", "recovery", {"attempt": attempt})
            try:
                solver = PASolver(
                    self.net, mode=self.mode, seed=self.seed + attempt,
                    engine=self.engine,
                )
                result = run(attempt, solver)
            except Exception as exc:
                if not self._faults_since(fault_mark):
                    raise  # a real bug, not fault fallout
                outcome = "died"
                detail = f"attempt {attempt} died: {type(exc).__name__}: {exc}"
                self._charge_aborted(attempt, overhead_mark)
            else:
                if self._faults_since(fault_mark):
                    # Completed, but the transport saw injections: the
                    # output cannot be trusted, recompute after stabilizing.
                    outcome = "tainted"
                    detail = f"attempt {attempt} completed under observed faults"
                    self.recovery_overhead.merge(
                        result.ledger, prefix=f"attempt{attempt}:"
                    )
                else:
                    outcome = "clean"
                    if attempt:
                        result.ledger = self._split_reelection(
                            result.ledger, attempt
                        )
            tracer.complete(
                "recovery.attempt", "recovery", attempt_us,
                {"attempt": attempt, "workload": workload, "outcome": outcome},
            )
            if outcome == "clean":
                return result
            self.stats.tainted_attempts += 1
            self._await_stability(detail)
        raise RecoveryExhaustedError(self.stats, detail)

    # -- workloads -------------------------------------------------------
    def solve_pa(
        self,
        partition: Partition,
        values: Sequence[object],
        agg: Aggregation,
    ) -> PAResult:
        """Part-Wise Aggregation that survives the engine's fault plan.

        Attempt 0 is the ordinary :func:`repro.core.pa.solve_pa` (so the
        no-fault path is bit-for-bit a plain run); retries re-elect
        leaders via Algorithm 9.  Returns the first trusted result, its
        ledger holding only the fault-free-equivalent cost.
        """
        return self._attempts(
            "pa", lambda attempt, solver: self._pa_attempt(
                attempt, solver, partition, values, agg
            ),
        )

    def _pa_attempt(
        self,
        attempt: int,
        solver: PASolver,
        partition: Partition,
        values: Sequence[object],
        agg: Aggregation,
    ) -> PAResult:
        """One PA attempt: the ordinary solve first, Algorithm 9 after."""
        if attempt == 0:
            return solve_pa(self.net, partition, values, agg, solver=solver)
        result = solve_pa_without_leaders(
            self.net, partition, values, agg, solver=solver
        )
        # solve_pa folds the tree ledger in; Algorithm 9 does not.
        result.ledger.merge(solver.tree_ledger, prefix="tree:")
        return result

    def minimum_spanning_tree(
        self, reuse: bool = False, **mst_kwargs
    ) -> RunResult:
        """MST that survives the engine's fault plan.

        Every attempt rebuilds the BFS tree and its flood-min leader
        election from scratch (that is MST's re-election: Boruvka starts
        from singleton parts whose leaders are the nodes themselves) on a
        fresh session with the given ``reuse`` opt-in — no setup, hence
        no learned route, outlives its attempt.  Extra keyword arguments
        pass through to :func:`repro.algorithms.mst.minimum_spanning_tree`.
        """
        from ..algorithms.mst import minimum_spanning_tree
        from .session import PASession

        def run(_attempt: int, solver: PASolver) -> RunResult:
            session = PASession(self.net, solver=solver, reuse=reuse)
            return minimum_spanning_tree(
                self.net, mode=self.mode, seed=solver.seed,
                session=session, **mst_kwargs,
            )

        return self._attempts("mst", run)
