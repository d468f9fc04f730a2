"""The rank-0 shard orchestrator: ship, solve, barrier, merge.

:class:`ShardOrchestrator` owns a pool of persistent forked workers
(one pipe each, sized by :func:`repro.procpool.resolve_workers` — the
same sizing the bench runner uses).  Per setup it computes the shard
plan once, restricts the setup per shard and ships each payload to its
worker (``shard.ship`` spans); per solve it restricts the wave plan and
values, dispatches to all shard workers, waits on the reply barrier
(``shard.solve`` / ``shard.barrier`` spans) and merges the per-shard
phase logs deterministically in shard-index order (``shard.merge``
span; see :mod:`repro.shard.ledger_merge` for the exact rule).

Aggregations cross the pipe *by name*: the stock aggregations are
registered here, and batch products encode as their component names
(lambda-closing aggregations cannot pickle).  An aggregation outside
the registry is the session's cue to fall back in-process.

The orchestrator keeps a :attr:`last_report` (worker count, per-shard
wall seconds, ship/merge overhead) that benchmarks surface into the
BENCH json scaling records.  Its ``ship_seconds`` is the wall time of
the most recent ship — the solve's own setup's unless another setup
shipped since: a warm solve ships nothing and reports the ship its
setup last paid for, and that is the value ``shard.ship_s`` records.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest.ledger import CostLedger
from ..core import aggregation as _aggmod
from ..core.aggregation import Aggregation
from ..core.pa import PASetup, product_aggregation
from ..core.wave import PAWaveResult, WavePlan, note_route
from ..obs.tracer import current_tracer
from .ledger_merge import merge_shard_phases
from .plan import ShardPlan, build_shard_plan
from .views import (
    build_shard_payload,
    restrict_delays,
    restrict_plan,
    restrict_values,
)

#: The picklable-by-name aggregation registry (stock aggregations only;
#: SUM/OR/AND/XOR close over lambdas and cannot pickle directly).
_STOCK = ("SUM", "MIN", "MAX", "OR", "AND", "XOR", "MIN_TUPLE", "MAX_TUPLE")
_BY_IDENTITY = {
    id(getattr(_aggmod, name)): name for name in _STOCK
}

#: How many shipped setups stay resident (rank-0 memo and workers alike:
#: workers hold exactly what this memo holds, until ``unload``).
_MAX_SHIPPED = 16


def encode_aggregation(agg: Aggregation) -> Optional[object]:
    """Encode a stock (or stock-product) aggregation for the pipe.

    Returns ``("stock", name)`` / ``("product", [names...])`` (a product
    is recognised by its recorded ``factors``), or ``None`` when the
    aggregation is not expressible — the caller then falls back to the
    in-process solver.
    """
    name = _BY_IDENTITY.get(id(agg))
    if name is not None:
        return ("stock", name)
    names = [_BY_IDENTITY.get(id(factor)) for factor in agg.factors]
    if names and None not in names:
        return ("product", names)
    return None


def decode_aggregation(encoded: object) -> Aggregation:
    """Worker-side inverse of :func:`encode_aggregation`."""
    kind, arg = encoded
    if kind == "stock":
        return getattr(_aggmod, arg)
    if kind == "product":
        return product_aggregation([getattr(_aggmod, n) for n in arg])
    raise RuntimeError(f"unknown aggregation encoding {encoded!r}")


class _ShardHandle:
    """Orchestrator-side record of one shipped shard."""

    __slots__ = ("worker_index", "pids", "nodes", "is_member")

    def __init__(self, worker_index, pids, nodes, is_member) -> None:
        self.worker_index = worker_index
        self.pids = pids
        self.nodes = nodes
        self.is_member = is_member


class ShardOrchestrator:
    """Rank-0 driver of the sharded backend for one engine configuration.

    ``engine_flags`` is the session engine's ``Engine.flags``, shipped
    verbatim so every worker builds the same engine on its shard.
    """

    def __init__(self, workers: int, engine_flags: Dict[str, bool]) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._engine_flags = engine_flags
        self._procs: List[multiprocessing.Process] = []
        self._pipes: List = []
        #: id(setup) -> (setup ref, setup_id, [_ShardHandle, ...]).  The
        #: strong setup reference keeps the id stable while cached.
        self._shipped: Dict[int, Tuple[PASetup, str, List[_ShardHandle]]] = {}
        self._ids = itertools.count()
        self._closed = False
        #: Scaling diagnostics of the most recent solve (for BENCH json).
        self.last_report: Optional[Dict[str, object]] = None
        #: Wall seconds of the most recent ship (0.0 before the first).
        self._ship_seconds = 0.0

    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._procs:
            return
        ctx = multiprocessing.get_context("fork")
        from .worker import worker_main

        for _ in range(self.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=worker_main, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._procs.append(proc)
            self._pipes.append(parent)

    def _recv(self, worker_index: int):
        reply = self._pipes[worker_index].recv()
        if reply[0] == "error":
            raise RuntimeError(
                f"shard worker {worker_index} failed:\n{reply[1]}"
            )
        return reply

    # ------------------------------------------------------------------
    def ship(self, setup: PASetup) -> List[_ShardHandle]:
        """Shard ``setup`` and ship each shard to its worker (memoized)."""
        cached = self._shipped.get(id(setup))
        if cached is not None and cached[0] is setup:
            return cached[2]
        self._ensure_workers()
        plan = build_shard_plan(setup, self.workers)
        setup_id = f"setup-{next(self._ids)}"
        tracer = current_tracer()
        handles: List[_ShardHandle] = []
        ship_start = time.perf_counter()
        for s, pids in enumerate(plan.shard_parts):
            with tracer.span("shard.ship", "shard") as args:
                payload = build_shard_payload(setup, pids)
                payload["engine_flags"] = self._engine_flags
                self._pipes[s].send(("load", setup_id, payload))
                args["shard"] = s
                args["parts"] = len(pids)
                args["nodes"] = int(payload["nodes"].size)
            handles.append(
                _ShardHandle(
                    worker_index=s,
                    pids=pids,
                    nodes=payload["nodes"],
                    is_member=payload["is_member"],
                )
            )
        for handle in handles:
            self._recv(handle.worker_index)
        self._ship_seconds = time.perf_counter() - ship_start
        self._shipped[id(setup)] = (setup, setup_id, handles)
        if len(self._shipped) > _MAX_SHIPPED:
            # Retire the oldest ship through ``release`` so the workers
            # drop it too; a later solve on it simply ships again.
            self.release(next(iter(self._shipped.values()))[0])
        return handles

    def solve(
        self,
        setup: PASetup,
        plan: WavePlan,
        values: Sequence[object],
        agg: Aggregation,
        ledger: CostLedger,
        phase_prefix: str = "pa",
    ) -> PAWaveResult:
        """One orchestrated wave pass; charges merged phases to ``ledger``.

        The run step of ``PASolver.solve_via`` for a sharded session;
        ``agg`` must be expressible by :func:`encode_aggregation`.

        Rank 0 holds the one fact about ``setup.route`` the ledger knows
        — the delay draw its token wave was paid under, or that none was
        yet — and sends it with every solve; each worker runs
        :func:`~repro.core.wave.run_planned_waves` on a memo of its own
        brought in line with it (a worker that holds no forest for a paid
        route re-derives it off the ledger).  The fact is committed here
        only once every shard has replied.
        """
        agg_encoded = encode_aggregation(agg)
        handles = self.ship(setup)
        setup_id = self._shipped[id(setup)][1]
        tracer = current_tracer()
        n = len(setup.partition.part_of)
        paid = setup.route.delays

        solve_start = time.perf_counter()
        for handle in handles:
            if tracer.enabled:
                tracer.instant(
                    "shard.solve", "shard", {"shard": handle.worker_index}
                )
            self._pipes[handle.worker_index].send((
                "solve",
                setup_id,
                {
                    "plan": restrict_plan(plan, handle.pids),
                    "paid": None if paid is None
                    else restrict_delays(paid, handle.pids),
                    "values": restrict_values(
                        values, handle.nodes, handle.is_member
                    ),
                    "agg": agg_encoded,
                    "phase_prefix": phase_prefix,
                },
            ))

        replies = []
        with tracer.span("shard.barrier", "shard") as args:
            for handle in handles:
                replies.append(self._recv(handle.worker_index)[1])
            args["shards"] = len(handles)
        barrier_seconds = time.perf_counter() - solve_start

        merge_start = time.perf_counter()
        with tracer.span("shard.merge", "shard") as args:
            outcome = self._merge(handles, replies, ledger, n)
            args["shards"] = len(handles)
        merge_seconds = time.perf_counter() - merge_start
        if paid is None:
            setup.route.delays = plan.delays
        note_route(phase_prefix, outcome)

        self.last_report = {
            "workers": self.workers,
            "shards": len(handles),
            "shard_wall_seconds": [r["wall_seconds"] for r in replies],
            "barrier_seconds": barrier_seconds,
            "merge_seconds": merge_seconds,
            "ship_seconds": self._ship_seconds,
        }
        return outcome

    def _merge(
        self,
        handles: List[_ShardHandle],
        replies: List[Dict[str, object]],
        ledger: CostLedger,
        n: int,
    ) -> PAWaveResult:
        """Merge shard replies in shard-index order (the handles' order)."""
        for stats in merge_shard_phases([r["phases"] for r in replies]):
            ledger.charge(stats)
        aggregates: Dict[int, object] = {}
        value_at_node: List[object] = [None] * n
        for handle, reply in zip(handles, replies):
            for lp, value in reply["aggregates"].items():
                aggregates[int(handle.pids[lp])] = value
            members = handle.nodes[handle.is_member]
            for g, value in zip(members.tolist(), reply["member_values"]):
                value_at_node[g] = value
        wire = [r["wire_edges"] for r in replies]
        return PAWaveResult(
            aggregates=aggregates, value_at_node=value_at_node,
            wire_edges=None if None in wire else sum(wire),
            forest_edges=sum(r["forest_edges"] for r in replies),
        )

    # ------------------------------------------------------------------
    def release(self, setup: PASetup) -> None:
        """Drop a shipped setup's pins, rank-0 and worker side (idempotent).

        Called by the session when its setup cache evicts an entry or an
        edge update invalidates it: without this the strong reference in
        :attr:`_shipped` — and the rebuilt shard in every worker — would
        keep the whole setup resident until enough further ships aged it
        out.  Unknown (never-shipped or already-released) setups
        are a no-op.
        """
        cached = self._shipped.get(id(setup))
        if cached is None or cached[0] is not setup:
            return
        _setup, setup_id, handles = cached
        del self._shipped[id(setup)]
        if self._closed or not self._pipes:
            return
        workers_used = sorted({h.worker_index for h in handles})
        for w in workers_used:
            try:
                self._pipes[w].send(("unload", setup_id))
            except (BrokenPipeError, OSError):  # pragma: no cover - dying pool
                continue
        for w in workers_used:
            try:
                self._recv(w)
            except (EOFError, OSError, RuntimeError):  # pragma: no cover
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes:
            try:
                pipe.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for pipe in self._pipes:
            try:
                pipe.recv()
            except (EOFError, OSError):
                pass
            pipe.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._procs.clear()
        self._pipes.clear()
        self._shipped.clear()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
