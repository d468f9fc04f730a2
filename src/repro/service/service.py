"""PA-as-a-service: serving aggregation query streams over evolving graphs.

The paper's algorithms are *consumers* of Part-Wise Aggregation; this
module turns the machinery into a *provider*: a long-lived
:class:`PAService` owns a :class:`~repro.runtime.PASession` over one
network and answers per-part aggregation queries from multiple tenants
while the graph underneath evolves — parts merge (coarsening), parts
split (refinement), edges come and go (tree-preserving rebind or counted
rebuild).  Every session-layer reuse mechanism is exercised from here,
and every cost remains on the usual CONGEST ledgers: rounds and messages
are ground truth, walls are never gated.

Cross-tenant micro-batching is the service's round-economy: queries
admitted to the queue are packed, across tenants, into one
``solve_many`` wave (k-tuple values, one broadcast/reversal/replay
instead of k) once ``max_batch`` accumulate or on an explicit
:meth:`PAService.flush`.  Attribution is *shared-cost*: each tenant with
a query in a wave is attributed the wave's full ledger on its own
``tenant:<name>`` stream (merged without re-emitting trace events — the
trace-once rule), so per-tenant sums can exceed the service ledger
exactly when waves were shared; the service ledger stays the bit-for-bit
ground truth that CI gates.

Updates are epoch barriers: :meth:`PAService.update_partition` and
:meth:`PAService.update_edges` flush pending queries first, so a query
is always answered against the partition and topology under which it was
admitted or later — never a half-applied mix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest.errors import BandwidthExceededError
from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..core.pa import PASetup
from ..graphs.partitions import Partition
from ..obs.tracer import current_tracer
from ..runtime.session import EdgeUpdateReport, PASession
from .queries import AggregateQuery


@dataclass
class ServiceStats:
    """Counters describing how the service served its tenants."""

    queries: int = 0            # queries admitted
    waves: int = 0              # wave passes served
    split_waves: int = 0        # packed waves too wide for a message, halved
    batched_queries: int = 0    # queries served in shared multi-query waves
    solo_queries: int = 0       # queries served in single-query waves
    partition_updates: int = 0  # update_partition epochs
    edge_updates: int = 0       # update_edges epochs
    tenants: int = 0            # tenants registered

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class QueryResult:
    """One answered query: per-part aggregates plus its wave's costs.

    ``rounds``/``messages`` are the *wave's* totals — shared by every
    query batched into it, mirroring the shared-cost attribution rule.
    """

    query_id: int
    tenant: str
    kind: str
    aggregates: Dict[int, object]
    wave: int
    rounds: int
    messages: int


class PAService:
    """A query-serving layer over one evolving network.

    Parameters
    ----------
    net / partition:
        The initial topology and part structure.  The first setup is a
        full prepare, charged to the service ledger under ``prepare:``.
    seed:
        Seed of the owned :class:`~repro.runtime.PASession` (constructed
        with ``reuse=True, batch=True`` — the service *is* the session's
        intended consumer).
    session:
        Adopt an existing session instead (must have ``reuse`` and
        ``batch`` enabled) — the one place to choose anything else about
        execution: mode, ``backend="sharded"``, engine.
    max_batch:
        Admission-queue depth that triggers an automatic flush.  1
        disables micro-batching (every submit solves immediately);
        larger values trade query latency for shared waves.
    """

    def __init__(
        self,
        net: Optional[Network] = None,
        partition: Optional[Partition] = None,
        seed: int = 0,
        max_batch: int = 8,
        session: Optional[PASession] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if partition is None:
            raise ValueError("PAService needs an initial partition")
        if session is not None:
            if not (session.reuse and session.batch):
                raise ValueError(
                    "an adopted session must have reuse and batch enabled"
                )
            self.session = session
        else:
            if net is None:
                raise ValueError("PAService needs a network (or a session)")
            self.session = PASession(net, seed=seed, reuse=True, batch=True)
        self.max_batch = max_batch
        self.stats = ServiceStats()
        #: Ground-truth service ledger (every wave, prepare and repair).
        self.ledger = CostLedger(stream="service")
        self._tenants: Dict[str, CostLedger] = {}
        self._queue: List[Tuple[int, str, AggregateQuery]] = []
        #: Per answered query id, its result — or, for a query too wide
        #: for a message even alone, the error :meth:`result` raises.
        self._results: Dict[int, object] = {}
        self._ids = itertools.count()
        self._waves = 0
        self.partition = partition
        self.setup: PASetup = self.session.prepare(partition)
        self.ledger.merge(self.setup.setup_ledger, prefix="prepare:")

    # -- tenants --------------------------------------------------------
    def register_tenant(self, name: str) -> CostLedger:
        """Create (or fetch) a tenant and return its attribution ledger."""
        ledger = self._tenants.get(name)
        if ledger is None:
            ledger = CostLedger(stream=f"tenant:{name}")
            self._tenants[name] = ledger
            self.stats.tenants += 1
        return ledger

    def tenant_ledger(self, name: str) -> CostLedger:
        """The shared-cost attribution ledger of a registered tenant."""
        return self._tenants[name]

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self._tenants)

    # -- the admission queue --------------------------------------------
    @property
    def pending(self) -> int:
        """Queries admitted but not yet served by a wave."""
        return len(self._queue)

    def submit(self, tenant: str, query: AggregateQuery) -> int:
        """Admit one query; returns its id (see :meth:`result`).

        Auto-registers the tenant.  When the queue reaches ``max_batch``
        the wave runs immediately; otherwise the query waits for more
        tenants to share the wave with (or an explicit :meth:`flush`, or
        the flush any update performs).
        """
        if len(query.values) != len(self.partition.part_of):
            raise ValueError(
                f"query carries {len(query.values)} values for a "
                f"{len(self.partition.part_of)}-node network"
            )
        self.register_tenant(tenant)
        qid = next(self._ids)
        self._queue.append((qid, tenant, query))
        self.stats.queries += 1
        if len(self._queue) >= self.max_batch:
            self.flush()
        return qid

    def flush(self) -> List[QueryResult]:
        """Serve every queued query; an empty queue is a no-op.

        A single queued query runs as a plain solve; two or more pack
        into one batched ``solve_many`` pass across tenants.  Results are
        returned in submission order and also retrievable once by id via
        :meth:`result`.

        Nothing dequeued is ever dropped.  A packed wave whose k-tuples
        outgrow the message budget (``BandwidthExceededError``) is served
        as two narrower waves instead, halving until a wave fits
        (``stats.split_waves`` counts the waves that had to be halved, a
        ``service.split_wave`` trace instant marks each); a
        query too wide *alone* gets that error from its own
        :meth:`result` (and no entry in the returned list) while the rest
        are answered.  On any other exception the unserved queries go
        back to the head of the queue, and the failed attempt's wave
        number is released, before it propagates.
        """
        batches, self._queue = [self._queue], []
        results: List[QueryResult] = []
        while batches:
            batch = batches.pop(0)
            if not batch:
                continue
            wave = self._waves
            self._waves += 1  # an attempt that fails leaves a gap: unique
            try:
                results.extend(self._serve(wave, batch))
            except BandwidthExceededError as error:
                if len(batch) == 1:
                    self._results[batch[0][0]] = error
                else:
                    self.stats.split_waves += 1
                    tracer = current_tracer()
                    if tracer.enabled:
                        tracer.instant(
                            "service.split_wave", "service",
                            {"wave": wave, "queries": len(batch)},
                        )
                    half = len(batch) // 2
                    batches[:0] = [batch[:half], batch[half:]]
            except BaseException:
                self._waves = wave
                self._queue = (
                    [entry for rest in [batch] + batches for entry in rest]
                    + self._queue
                )
                raise
        return results

    def _serve(self, wave: int, queue) -> List[QueryResult]:
        """One wave over ``queue``: solve, charge, attribute, record."""
        tracer = current_tracer()
        items = [
            (query.wave_values(), query.aggregation())
            for _qid, _tenant, query in queue
        ]
        with tracer.span("service.flush", "service") as args:
            per, ledger = self._run_wave(wave, items)
            args["wave"] = wave
            args["queries"] = len(queue)
            args["tenants"] = len({t for _q, t, _query in queue})
            args["rounds"] = ledger.rounds
            args["messages"] = ledger.messages

        self.stats.waves += 1
        if len(queue) > 1:
            self.stats.batched_queries += len(queue)
        else:
            self.stats.solo_queries += 1
        # Ground truth first; every phase was traced when first charged,
        # so the re-attributions below stay off the trace (trace-once).
        self.ledger.merge(ledger)

        results: List[QueryResult] = []
        per_tenant: Dict[str, int] = {}
        for (qid, tenant, query), answer in zip(queue, per):
            result = QueryResult(
                query_id=qid,
                tenant=tenant,
                kind=query.kind,
                aggregates=dict(answer.aggregates),
                wave=wave,
                rounds=ledger.rounds,
                messages=ledger.messages,
            )
            self._results[qid] = result
            results.append(result)
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        for tenant, count in per_tenant.items():
            # Shared-cost attribution: every tenant in the wave carries
            # the wave's whole cost on its own stream.  Summing tenant
            # ledgers therefore over-counts exactly when waves were
            # shared — that surplus *is* the batching win, and the
            # service ledger above stays the gated ground truth.
            self._tenants[tenant].merge(ledger)
            if tracer.enabled:
                tracer.instant(
                    "service.attribution", "service",
                    {
                        "tenant": tenant, "wave": wave, "queries": count,
                        "rounds": ledger.rounds, "messages": ledger.messages,
                    },
                )
        return results

    def _run_wave(self, wave: int, items) -> Tuple[List[object], CostLedger]:
        """One solve/solve_many pass; returns per-query results + ledger."""
        if len(items) == 1:
            values, agg = items[0]
            result = self.session.solve(
                self.setup, values, agg,
                charge_setup=False, phase_prefix=f"serve{wave}",
            )
            return [result], result.ledger
        batch = self.session.solve_many(
            self.setup, items,
            charge_setup=False, phase_prefix=f"serve{wave}q",
        )
        return list(batch.per_agg), batch.ledger

    def result(self, query_id: int) -> QueryResult:
        """Retrieve (and forget) an answered query's result.

        Raises ``KeyError`` while the query is still queued — flush
        first, or let an update/auto-flush serve it — and, for a query
        whose values no message holds even in a wave of its own, the
        ``BandwidthExceededError`` its wave met.
        """
        outcome = self._results.pop(query_id)
        if isinstance(outcome, BandwidthExceededError):
            raise outcome
        return outcome

    # -- the evolving graph ---------------------------------------------
    def update_partition(self, partition: Partition) -> PASetup:
        """Adopt a new part structure (epoch barrier: flushes first).

        Served incrementally whenever the session can: a merge-only
        coarsening or split-only refinement of the current partition
        projects the standing machinery and re-verifies it with PA
        itself (budget misses fall back to a counted full prepare);
        anything else is a full prepare.  Construction cost lands on the
        service ledger under ``update:``.
        """
        self.flush()
        with current_tracer().span("service.update", "service") as args:
            setup = self.session.prepare_incremental(self.setup, partition)
            args["parts"] = partition.num_parts
            args["rounds"] = setup.setup_ledger.rounds
            args["messages"] = setup.setup_ledger.messages
        self.partition = partition
        self.setup = setup
        self.ledger.merge(setup.setup_ledger, prefix="update:")
        self.stats.partition_updates += 1
        return setup

    def update_edges(
        self,
        add: Sequence[Tuple[int, int]] = (),
        remove: Sequence[Tuple[int, int]] = (),
        weights: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> EdgeUpdateReport:
        """Adopt an edge insert/delete batch (epoch barrier: flushes first).

        Delegates to :meth:`~repro.runtime.PASession.apply_edge_updates`
        — a tree-preserving rebind when possible, a counted rebuild
        otherwise — then re-acquires the current partition's setup (a
        cache hit after a repair; a fresh prepare after a rebuild).  The
        current partition must stay valid on the updated graph; removing
        an edge that disconnects a part raises, so regroup via
        :meth:`update_partition` first in that case.
        """
        self.flush()
        report = self.session.apply_edge_updates(
            add=add, remove=remove, weights=weights
        )
        self.ledger.merge(report.ledger, prefix="edges:")
        setup = self.session.prepare(self.partition)
        self.setup = setup
        self.ledger.merge(setup.setup_ledger, prefix="update:")
        self.stats.edge_updates += 1
        return report

    # -- lifecycle ------------------------------------------------------
    @property
    def net(self) -> Network:
        """The *current* network (changes across :meth:`update_edges`)."""
        return self.session.net

    def session_stats(self) -> Dict[str, int]:
        """The owned session's counters (cache/coarsen/refine/repair)."""
        return self.session.stats.as_dict()

    def close(self) -> None:
        """Drain pending queries, then release the session; idempotent."""
        if self._queue:
            self.flush()
        self.session.close()

    def __enter__(self) -> "PAService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
