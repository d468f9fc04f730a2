"""The PA session: cross-phase reuse of the Theorem 1.2 pipeline.

Every application in the paper (Corollaries 1.3-1.5, A.1-A.3) is a loop of
Part-Wise Aggregation solves, yet a bare :class:`~repro.core.pa.PASolver`
treats each ``prepare`` as a one-shot: Boruvka's O(log n) phases rebuild
the sub-part division and the shortcut from scratch every time the
partition changes.  :class:`PASession` owns a solver (network, mode, seed,
ledger conventions, optional family-aware shortcut provider) and adds
four opt-in capabilities on top:

* **Setup caching** (``reuse=True``): ``prepare`` memoizes on a partition
  fingerprint ``(part_of, leaders)``.  Re-preparing an already-seen
  partition (e.g. the k-th tree packing of min-cut starting from the same
  singleton partition, or a Boruvka phase that merged nobody because its
  exchange was lost) returns the cached setup with an empty setup ledger —
  amortization made explicit rather than re-charged.

* **Incremental projection** (``reuse=True``): when a partition is a
  merge-only coarsening or a split-only refinement of a prepared one
  (Boruvka phases merging fragments; the service layer's regrouping
  updates), ``prepare_incremental`` *projects* the previous machinery
  instead of rebuilding — the shortcut is relabeled
  (:func:`~repro.core.shortcuts.relabel_shortcut`), the sub-part forest
  is cut at the new part borders (a no-op under merges: old sub-parts
  still refine merged parts) and blocks are re-annotated distributively.
  Quality is then *re-verified with PA itself* (Algorithm 2 — the
  paper's own trick for checking block parameters) unless the parent's
  block counts already imply the budget (a union of edge sets has no
  more components than its terms), and congestion re-checked; a
  projection over either budget is discarded for a fresh construction,
  so reuse can cost rounds but never correctness.

* **Edge updates** (:meth:`PASession.apply_edge_updates`): insert/delete
  batches over the (immutable) network are absorbed by a tree-preserving
  *rebind* whenever no spanning-tree edge was removed — shortcuts are
  ``T``-restricted, so the whole cached machinery survives verbatim —
  and by a counted full rebuild otherwise.

* **Batched multi-aggregate solves** (``batch=True``):
  :meth:`solve_many` runs k aggregations over one setup in a single wave
  pass (k-tuple values, componentwise merge) — one broadcast/reversal/
  replay instead of k.  See docs/architecture.md ("Runtime sessions")
  for when that is ledger-legitimate.

With both flags off (the default) every call delegates verbatim to the
underlying solver: same code path, same randomness, same ledger entries,
bit for bit — pinned by tests/runtime/test_session.py.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.theory import TABLE1
from ..congest.errors import InvalidPartitionError
from ..congest.ledger import CostLedger
from ..congest.network import Network, canonical_edge
from ..obs.tracer import current_tracer
from ..core.aggregation import Aggregation
from ..core.blocks import annotate_blocks
from ..core.corefast import block_target_for, verify_block_parameters
from ..core.pa import (
    PABatchResult,
    PAResult,
    PASetup,
    PASolver,
    RANDOMIZED,
    solve_many_via,
)
from ..core.shortcuts import Shortcut, relabel_shortcut
from ..core.subparts import SubPartDivision
from ..core.trees import ROOT, RootedForest
from ..core.wave import RouteMemo
from ..graphs.partitions import Partition, validate_partition

Fingerprint = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]


@dataclass
class SessionStats:
    """Counters describing how a session served its prepares/solves."""

    prepares: int = 0          # full pipeline constructions
    cache_hits: int = 0        # setups served from the fingerprint memo
    coarsenings: int = 0       # setups served by incremental coarsening
    refinements: int = 0       # setups served by split-only refinement
    rebuilds: int = 0          # coarsenings/refinements rejected by re-verify
    implied: int = 0           # projections whose parent's counts implied b
    solves: int = 0            # single-aggregate solves
    routed_solves: int = 0     # wave passes that reused their setup's route
    batched_solves: int = 0    # aggregations folded into shared wave passes
    evictions: int = 0         # cache entries dropped by the LRU bound
    sharded_solves: int = 0    # wave passes run on the multiprocess backend
    sharded_fallbacks: int = 0  # sharded requests served in-process instead
    edge_updates: int = 0      # apply_edge_updates calls absorbed
    repairs: int = 0           # edge updates served by tree-preserving rebind
    graph_rebuilds: int = 0    # edge updates that re-elected/rebuilt the tree
    repair_evictions: int = 0  # cached setups invalidated by edge updates

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def partition_fingerprint(
    partition: Partition, leaders: Optional[Sequence[int]] = None
) -> Fingerprint:
    """The session cache key: the exact part assignment plus leaders.

    ``part_of`` determines the division and shortcut given the solver's
    fixed tree/mode/seed *state*, and leaders determine wave roots;
    ``None`` leaders mean the solver's deterministic default, so they
    fingerprint as ``None`` rather than being materialized.
    """
    return (
        tuple(partition.part_of),
        tuple(leaders) if leaders is not None else None,
    )


def _partition_image(
    old: Partition, new: Partition
) -> Optional[List[List[int]]]:
    """``image[old_pid]`` = the new parts ``old_pid``'s members land in.

    The one relation a projection needs, ascending per old part.  Two
    shapes are accepted: *merge-only* (every old part lands in exactly
    one new part) and *split-only* (every new part draws from exactly one
    old part; an old part may break into several fragments).  Anything
    else — parts crossing, or different node sets — returns ``None`` and
    the caller falls back to a full prepare.
    """
    if len(old.part_of) != len(new.part_of):
        return None
    width = new.num_parts
    pairs = np.unique(
        np.asarray(old.part_of, dtype=np.int64) * width
        + np.asarray(new.part_of, dtype=np.int64)
    )
    if pairs.size not in (old.num_parts, new.num_parts):
        return None
    image: List[List[int]] = [[] for _ in range(old.num_parts)]
    for old_pid, new_pid in zip(
        (pairs // width).tolist(), (pairs % width).tolist()
    ):
        image[old_pid].append(new_pid)
    return image


@dataclass
class EdgeUpdateReport:
    """What :meth:`PASession.apply_edge_updates` did with one update batch.

    ``repaired`` distinguishes the tree-preserving rebind (the BFS tree
    and every cached shortcut survived verbatim) from a full rebuild
    (tree re-election charged to ``ledger`` under the ``rebuild:``
    prefix).  ``evicted_setups`` counts cached setups the update
    invalidated — partitions disconnected by a deletion, sub-part
    forests that lost a spanning edge, or (on rebuild) everything.
    """

    added: int
    removed: int
    repaired: bool
    evicted_setups: int
    ledger: CostLedger


class PASession:
    """A long-lived PA acquisition point for one network.

    ``net``, ``mode``, ``seed``, ``root``, ``strict_bits`` and
    ``strict_edges`` construct the session's default
    :class:`~repro.core.pa.PASolver`; every other engine-level setting
    (asynchronous ``schedule``, ``engine_impl``, a shared ``engine``) is
    chosen where the engine is built — on a ``PASolver``
    handed in through ``solver=``.  The session's own settings:

    shortcut_provider:
        Which shortcut construction ``prepare`` uses: a
        :class:`repro.families.ShortcutProvider`, e.g.
        ``provider_for("planar")``.  ``None`` (default) is the general
        mode-selected pipeline, bit for bit.
    reuse:
        Enable setup caching and incremental projection.
    batch:
        Enable single-wave multi-aggregate solves in :meth:`solve_many`.
    max_entries:
        Bound the setup cache (``None`` = unbounded, the historical
        behavior).  When the bound is exceeded the least-recently-used
        entry is evicted — coarsened entries first; *pinned* entries
        (setups built by a full ``prepare``, the loop-entry partitions
        that phase loops revisit) survive as long as any unpinned entry
        can be evicted instead, and only fall to LRU among themselves
        once the cache is all pinned.
    backend / workers / shard_min_n:
        ``backend="sharded"`` runs eligible wave passes on the
        multiprocess worker pool (:mod:`repro.shard`): the setup is split
        into conflict components, each shard solves its phases in a forked
        worker, and the per-shard ledgers merge deterministically —
        rounds/messages bit-for-bit identical to the in-process engines
        (gated in CI).  ``workers`` sizes the pool
        (:func:`repro.procpool.resolve_workers`; ``"auto"`` = the cpus
        the scheduler actually grants this process — the affinity mask
        under cgroup limits, not the machine's raw core count);
        ``shard_min_n`` keeps networks below the threshold in-process
        (fork + pickle overhead dominates small instances).  Requests the
        backend cannot serve — async/pre-scheduled engines, aggregations
        outside the stock registry, missing ``fork`` — fall back to the
        in-process solver, counted in ``stats.sharded_fallbacks``.
    solver:
        Adopt an existing solver (its engine, tree, mode and rng state)
        instead of constructing one; the solver-construction arguments
        above are then unused.  An asynchronous solver's synchronizer
        accounting is exposed as :attr:`async_overhead`.
    """

    def __init__(
        self,
        net: Network,
        mode: str = RANDOMIZED,
        seed: int = 0,
        root: Optional[int] = None,
        strict_bits: bool = True,
        strict_edges: bool = True,
        shortcut_provider: Optional[object] = None,
        reuse: bool = False,
        batch: bool = False,
        max_entries: Optional[int] = None,
        solver: Optional[PASolver] = None,
        backend: str = "local",
        workers: object = "auto",
        shard_min_n: int = 4096,
    ) -> None:
        if backend not in ("local", "sharded"):
            raise ValueError(f"unknown backend {backend!r}")
        self.shortcut_provider = shortcut_provider
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        if solver is not None:
            if solver.net is not net:
                theirs, mine = solver.net, net
                their_csr = theirs.adjacency_csr()
                my_csr = mine.adjacency_csr()
                if (
                    theirs.n != mine.n
                    or their_csr[0] != my_csr[0]
                    or their_csr[1] != my_csr[1]
                    or theirs.uid != mine.uid
                ):
                    raise ValueError(
                        "solver is bound to an incompatible network "
                        "(topology or uid permutation differs)"
                    )
            self.solver = solver
        else:
            self.solver = PASolver(
                net, mode=mode, seed=seed, root=root,
                strict_bits=strict_bits, strict_edges=strict_edges,
            )
        self.reuse = reuse
        self.batch = batch
        self.max_entries = max_entries
        self.backend = backend
        self.shard_min_n = shard_min_n
        if backend == "sharded":
            from ..procpool import resolve_workers

            self.workers = resolve_workers(workers)
        else:
            self.workers = None
        self._orchestrator = None
        self._last_ran_sharded = False
        self._closed = False
        self.stats = SessionStats()
        # Recency-ordered memo (oldest first); bounded by ``max_entries``.
        self._cache: "OrderedDict[Fingerprint, PASetup]" = OrderedDict()
        # Keys whose entries came from coarsening.  Partitions only ever
        # coarsen forward inside a phase loop, so once a coarsened setup
        # is superseded by the next coarsening it can never be requested
        # again and is evicted; full-prepare entries (loop entry points
        # like the singleton partition, revisited across min-cut packing
        # trees) are *pinned*: under the LRU bound they are evicted only
        # when no coarsened entry is left to evict instead.
        self._coarsened_keys: set = set()

    # -- conveniences the algorithms lean on ---------------------------
    @property
    def net(self) -> Network:
        return self.solver.net

    @property
    def mode(self) -> str:
        return self.solver.mode

    @property
    def engine(self):
        return self.solver.engine

    @property
    def tree(self):
        return self.solver.tree

    @property
    def tree_ledger(self) -> CostLedger:
        return self.solver.tree_ledger

    @property
    def async_overhead(self) -> Optional[CostLedger]:
        """The async engine's synchronizer ledger (None when synchronous).

        Per phase: ``rounds`` holds virtual time-units, ``messages`` the
        ack/safe control messages — see docs/architecture.md,
        "Asynchronous execution".
        """
        return getattr(self.solver.engine, "overhead", None)

    def clear_cache(self) -> None:
        """Drop all memoized setups (e.g. between unrelated workloads)."""
        if self._orchestrator is not None:
            for setup in self._cache.values():
                self._orchestrator.release(setup)
        self._cache.clear()
        self._coarsened_keys.clear()

    def close(self) -> None:
        """Release backend resources (the sharded worker pool); idempotent.

        Safe to call any number of times, from ``__exit__``, from pool
        eviction, or after a mid-solve failure; a closed session can keep
        serving — the orchestrator is lazily rebuilt on the next sharded
        solve.
        """
        self._closed = True
        if self._orchestrator is not None:
            self._orchestrator.close()
            self._orchestrator = None

    def __enter__(self) -> "PASession":
        self._closed = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def shard_report(self) -> Optional[Dict[str, object]]:
        """Scaling diagnostics of the last solve *iff it ran sharded*.

        Keys: ``workers``, ``shards``, ``shard_wall_seconds`` (per shard),
        ``barrier_seconds``, ``merge_seconds``, ``ship_seconds`` — what
        the ``shard.*`` layer metrics of ``benchmarks/perf`` are read from.

        ``None`` whenever the most recent solve was served in-process
        (local backend, or a sharded request that fell back) — a stale
        report from an earlier sharded solve is never returned.
        """
        if self._orchestrator is None or not self._last_ran_sharded:
            return None
        return self._orchestrator.last_report

    # -- sharded backend -----------------------------------------------
    def _shard_orchestrator(self):
        if self._orchestrator is None:
            from ..shard import ShardOrchestrator

            self._orchestrator = ShardOrchestrator(
                self.workers, self.solver.engine.flags
            )
        return self._orchestrator

    def _shard_eligible(self) -> bool:
        """Whether the sharded backend may serve this session's solves."""
        import multiprocessing

        return (
            self.backend == "sharded"
            and self.solver.schedule is None
            and self.net.n >= self.shard_min_n
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _run_sharded(self, setup, plan, values, agg, ledger, phase_prefix):
        """The sharded run step of ``PASolver.solve_via``.

        The plan was computed rank-0 from the *global* structures; only
        the three wave phases run on the workers.
        """
        try:
            outcome = self._shard_orchestrator().solve(
                setup, plan, values, agg, ledger, phase_prefix=phase_prefix,
            )
        except BaseException:
            # A worker died or pickling blew up mid-wave: the pool's state
            # is suspect, so reap it now rather than leaking forked
            # processes behind the exception (a fresh orchestrator is
            # lazily rebuilt if the caller retries).
            self.close()
            raise
        self._last_ran_sharded = True
        return outcome

    # -- cache mechanics (LRU bound + loop-entry pinning) ---------------
    def _cache_lookup(self, key: Fingerprint) -> Optional[PASetup]:
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
        return cached

    def _cache_store(self, key: Fingerprint, setup: PASetup) -> None:
        self._cache[key] = setup
        self._cache.move_to_end(key)
        if self.max_entries is None:
            return
        while len(self._cache) > self.max_entries:
            # Evict the least-recently-used *unpinned* (coarsened) entry;
            # pinned loop-entry setups go only when nothing else is left.
            # The entry just stored is never its own victim.
            victim = None
            for k in self._cache:
                if k != key and k in self._coarsened_keys:
                    victim = k
                    break
            if victim is None:
                victim = next((k for k in self._cache if k != key), None)
            if victim is None:
                break
            evicted = self._cache.pop(victim)
            self._coarsened_keys.discard(victim)
            self.stats.evictions += 1
            if self._orchestrator is not None:
                # The workers pinned the shipped setup by identity; an
                # evicted entry would otherwise stay resident in every
                # worker until 16 further ships aged it out.
                self._orchestrator.release(evicted)

    def _traced_build(self, outcome: str, build):
        """Run ``build`` under a ``session.prepare`` span (traced only).

        ``outcome`` is what the caller expects ("full", "coarsened" or
        "refined"); a projection that fell out of budget reports itself as
        "rebuild", and every projection says whether its verification
        "ran" or was "implied" by its parent's block counts (both detected
        via the stats counters).  The span carries the built setup's
        ledger totals, the largest per-part block bound it holds, its
        achieved (b, c) and its sub-part count, so a trace shows what each
        construction cost and what it built without walking ledger events.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return build()
        rebuilds_before = self.stats.rebuilds
        implied_before = self.stats.implied
        with tracer.span("session.prepare", "session") as args:
            setup = build()
            args["outcome"] = (
                "rebuild" if self.stats.rebuilds > rebuilds_before else outcome
            )
            if outcome != "full":
                args["verified"] = (
                    "implied" if self.stats.implied > implied_before else "ran"
                )
            args["rounds"] = setup.setup_ledger.rounds
            args["messages"] = setup.setup_ledger.messages
            args["bound"] = max(setup.block_bound)
            args["b"], args["c"] = setup.quality()
            args["subparts"] = setup.division.num_subparts()
        return setup

    # ------------------------------------------------------------------
    def block_budget(self) -> int:
        """Max verified block parameter a projected shortcut may keep.

        The target the constructions freeze parts at
        (:func:`~repro.core.corefast.block_target_for`), so a projection
        is held to the standard the from-scratch pipeline holds itself to.
        """
        return block_target_for(self.net.n)

    def _cache_hit(self, key: Fingerprint) -> Optional[PASetup]:
        """The memoized setup for ``key`` with an empty ledger, counted."""
        cached = self._cache_lookup(key)
        if cached is None:
            return None
        self.stats.cache_hits += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant("session.cache_hit", "session")
        return replace(cached, setup_ledger=CostLedger())

    def _full_prepare(self, partition: Partition, leaders) -> PASetup:
        """One full pipeline construction on the solver, counted."""
        self.stats.prepares += 1
        return self.solver.prepare(
            partition, leaders=leaders,
            shortcut_provider=self.shortcut_provider,
        )

    def prepare(
        self,
        partition: Partition,
        leaders: Optional[Sequence[int]] = None,
    ) -> PASetup:
        """Build (or fetch) the PA machinery for a partition.

        With ``reuse`` off this is exactly
        ``solver.prepare(..., shortcut_provider=self.shortcut_provider)``.
        With ``reuse`` on, a fingerprint hit returns the cached setup with
        an *empty* setup ledger (construction was already charged when it
        was first built); a miss builds, memoizes and returns as usual.
        """
        key = partition_fingerprint(partition, leaders) if self.reuse else None
        if key is not None:
            cached = self._cache_hit(key)
            if cached is not None:
                return cached
        setup = self._traced_build(
            "full", lambda: self._full_prepare(partition, leaders)
        )
        if key is not None:
            self._cache_store(key, setup)
        return setup

    def prepare_incremental(
        self,
        previous: Optional[PASetup],
        partition: Partition,
        leaders: Optional[Sequence[int]] = None,
    ) -> PASetup:
        """``prepare`` that may project ``previous`` instead of rebuilding.

        The contract phase loops rely on: with ``reuse`` off (or no usable
        ``previous``) this is exactly :meth:`prepare`; with ``reuse`` on
        and ``partition`` a merge-only coarsening of ``previous``'s
        (Boruvka fragments merging) or a split-only refinement of it
        (parts breaking apart — the service layer's regrouping updates),
        the previous machinery is projected and, where its parent's
        block counts do not already imply the budget, re-verified (see
        :meth:`_project`).  Either way the returned setup is correct for
        PA over ``partition`` — only its construction cost differs.
        """
        if not self.reuse or previous is None:
            return self.prepare(partition, leaders=leaders)
        key = partition_fingerprint(partition, leaders)
        cached = self._cache_hit(key)
        if cached is not None:
            return cached
        image = _partition_image(previous.partition, partition)
        if image is None:
            return self.prepare(partition, leaders=leaders)
        merging = all(len(new_pids) == 1 for new_pids in image)
        kind, outcome = (
            ("coarsen", "coarsened") if merging else ("refine", "refined")
        )
        setup = self._traced_build(
            outcome,
            lambda: self._project(previous, partition, image, kind, leaders),
        )
        # Projected entries are unpinned (first in line under the LRU
        # bound), whichever direction they were projected in.
        self._coarsened_keys.add(key)
        self._cache_store(key, setup)
        if not merging:
            # A refinement does *not* supersede the previous entry:
            # unlike a phase loop's forward-only merges, split partitions
            # can re-merge (a service tenant re-presenting yesterday's
            # grouping), so the parent entry stays until the LRU bound
            # says otherwise.
            return setup
        # The previous link of a coarsening chain is superseded: comp
        # labels only merge forward, so its partition cannot recur (the
        # no-merge retry re-presents the *latest* partition, which is the
        # entry just stored).  Full-prepare entries are never evicted.
        for prev_key in (
            partition_fingerprint(previous.partition, previous.leaders),
            partition_fingerprint(previous.partition, None),
        ):
            if prev_key != key and prev_key in self._coarsened_keys:
                self._coarsened_keys.discard(prev_key)
                self._cache.pop(prev_key, None)
        return setup

    def _project(
        self,
        previous: PASetup,
        partition: Partition,
        image: Sequence[Sequence[int]],
        kind: str,
        leaders: Optional[Sequence[int]],
    ) -> PASetup:
        """Project ``previous``'s machinery onto a merged or split partition.

        ``image`` is :func:`_partition_image` of the two partitions and
        ``kind`` (``"coarsen"`` / ``"refine"``) names its shape in the
        phase log.  Steps, each metered into the returned setup's ledger:

        1. relabel the shortcut (:func:`relabel_shortcut`: a merged part
           takes the union of its constituents' edge sets, every fragment
           its ancestor's) — free of communication, the merge / split
           broadcast already carried the new ids;
        2. cut the sub-part forest at the new part borders: a parent edge
           whose endpoints landed in different parts is severed, the
           orphaned child becoming the representative of its subtree.
           Under merges nothing is severed (old sub-parts still refine the
           merged parts) and forest and ``rep_of`` are reused;
        3. one round (``{kind}_boundary_exchange``) in which the members
           of merged or split parts exchange new part ids with their
           neighbors, so each learns which incident edges joined or left
           its part — what the division's wave boundary is read from;
        4. re-annotate blocks distributively (roots and depths change as
           blocks fuse or forests are cut), and re-verify the block
           parameter *with PA itself* (Algorithm 2 / Lemma 4.5, phases
           ``{kind}_verify_*``) — unless what the parts already hold
           certifies the budget.  The lemma: a merged part's ``H`` is the
           union of its constituents' edge sets, and a union of edge sets
           has at most as many connected components as its terms have in
           total, so ``#blocks(merged) <= sum #blocks(constituent)``; a
           fragment inherits its ancestor's ``H`` whole, so
           ``#blocks(fragment) <= #blocks(ancestor)``.  Every setup
           carries a per-part bound (:attr:`PASetup.block_bound`: the
           counts PA last summed, or what the parent's bound implies by
           the lemma), and when the largest implied bound is within
           :meth:`block_budget` no verification runs and no delay is
           drawn: the caller's first query is then the solve that learns
           the setup's route.  Otherwise the verification runs as the
           projected setup's first solve — its two wire passes are the
           ones that learn the route — and the setup's bound is the count
           it paid for.

        One budget rule: the block count — bounded by the lemma, or
        verified — must stay within :meth:`block_budget` and the
        congestion within ``max(previous c, general-graph envelope)`` —
        the latter can only bind under splits (fragments pile onto shared
        tree edges; relabeling merged parts only dedupes).  A projection
        over budget is discarded for a fresh full prepare charged to the
        same ledger under ``rebuild:``, the verification it paid for
        included: quality degradation can cost a rebuild, but never
        silently compounds.
        """
        solver = self.solver
        net = solver.net
        leaders = solver.checked_leaders(partition, leaders)
        ledger = CostLedger()
        shortcut = relabel_shortcut(previous.shortcut, partition, image)

        forest, rep_of = previous.division.forest, previous.division.rep_of
        part = np.asarray(partition.part_of, dtype=np.int64)
        fparent = np.asarray(forest.parent, dtype=np.int64)
        severed = (fparent >= 0) & (part[fparent] != part)
        if severed.any():
            fparent[severed] = ROOT
            forest = RootedForest(net, fparent.tolist())
            rep_of = tuple(forest.plan.root_of.tolist())
        division = SubPartDivision(
            partition=partition,
            forest=forest,
            rep_of=rep_of,
            part_leader=leaders,
        )

        fan_in = Counter(new_pid for new_pids in image for new_pid in new_pids)
        touched = sum(
            previous.partition.size_of(old_pid)
            for old_pid, new_pids in enumerate(image)
            if len(new_pids) > 1 or fan_in[new_pids[0]] > 1
        )
        ledger.charge_local(
            f"{kind}_boundary_exchange", rounds=1, messages=2 * touched
        )
        if kind == "coarsen":
            self.stats.coarsenings += 1
        else:
            self.stats.refinements += 1

        annotations = annotate_blocks(solver.engine, shortcut, ledger)
        # What the parent's bound implies: a sum over the constituents of
        # a merged part, the ancestor's own for a fragment.
        bound = [0] * partition.num_parts
        for old_pid, new_pids in enumerate(image):
            for new_pid in new_pids:
                bound[new_pid] += previous.block_bound[old_pid]
        implied = max(bound) <= self.block_budget()
        # The setup exists before it is verified: a verification is its
        # first solve, so it — not the caller's first query — learns the
        # setup's route, and its bound is the count it summed.
        setup = PASetup(
            partition=partition,
            leaders=leaders,
            division=division,
            shortcut=shortcut,
            annotations=annotations,
            setup_ledger=ledger,
            block_bound=tuple(bound) if implied else None,
        )
        if implied:
            self.stats.implied += 1
            over = False
        else:
            counts = verify_block_parameters(
                solver.engine, net, partition, division, shortcut,
                annotations, ledger, randomized=(solver.mode == RANDOMIZED),
                rng=solver.rng, phase_prefix=f"{kind}_verify",
                route=setup.route,
            )
            over = max(counts) > self.block_budget()
        envelope = TABLE1["general"].congestion(net.n, solver.diameter, 1)
        if over or shortcut.congestion() > max(
            previous.shortcut.congestion(), math.ceil(envelope)
        ):
            self.stats.rebuilds += 1
            rebuilt = self._full_prepare(partition, leaders)
            ledger.merge(rebuilt.setup_ledger, prefix="rebuild:")
            return replace(rebuilt, setup_ledger=ledger)
        return setup

    # -- evolving graphs ------------------------------------------------
    def apply_edge_updates(
        self,
        add: Sequence[Tuple[int, int]] = (),
        remove: Sequence[Tuple[int, int]] = (),
        weights: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> EdgeUpdateReport:
        """Adopt an edge insert/delete batch, repairing instead of rebuilding.

        Networks are immutable, so the update builds a new
        :class:`Network` with the same node count and uid seed — uids are
        a pure function of both, so every node keeps its identity.  Two
        paths:

        * **repair** — when no removed edge is a spanning-tree edge, the
          BFS tree survives verbatim and with it every tree-restricted
          shortcut (their edges live in ``E[T]``, by Definition 2.2 the
          update cannot touch them).  The solver is rebound
          (:meth:`~repro.core.pa.PASolver.rebind`), and every cached
          setup whose partition stays connected and whose sub-part
          forest lost no edge is rebound too.  Setups the update
          invalidated are evicted, never served stale.
        * **rebuild** — a removed tree edge (or an engine that cannot be
          rebound, e.g. asynchronous) forces a fresh solver: new leader
          election + BFS tree with the same mode/seed, charged to the
          report's ledger under the ``rebuild:`` prefix, and the whole
          setup cache dropped.

        ``weights`` supplies weights for added edges on a weighted
        network (required there, rejected on unweighted ones).  Returns
        an :class:`EdgeUpdateReport`; costs are *not* folded into any
        setup ledger — the caller owns the update's cost, mirroring how
        ``prepare`` owns construction costs.
        """
        solver = self.solver
        net = solver.net
        add_set = {canonical_edge(u, v) for u, v in add}
        remove_set = {canonical_edge(u, v) for u, v in remove}
        overlap = add_set & remove_set
        if overlap:
            raise ValueError(
                f"edges both added and removed: {sorted(overlap)[:5]}"
            )
        for e in sorted(remove_set):
            if not net.has_edge(*e):
                raise ValueError(f"cannot remove non-edge {e}")
        for e in sorted(add_set):
            if net.has_edge(*e):
                raise ValueError(f"cannot add existing edge {e}")
        if weights is not None and net.weights is None:
            raise ValueError("weights given for an unweighted network")

        ledger = CostLedger()
        if not add_set and not remove_set:
            self.stats.edge_updates += 1
            return EdgeUpdateReport(0, 0, True, 0, ledger)

        new_edges = [e for e in net.edges if e not in remove_set]
        new_edges.extend(sorted(add_set))
        new_weights = None
        if net.weights is not None:
            new_weights = {
                e: w for e, w in net.weights.items() if e not in remove_set
            }
            given = (
                {}
                if weights is None
                else {
                    canonical_edge(u, v): w for (u, v), w in weights.items()
                }
            )
            for e in sorted(add_set):
                if e not in given:
                    raise ValueError(
                        f"added edge {e} needs a weight on a weighted network"
                    )
                new_weights[e] = given[e]
        new_net = Network(
            new_edges, n=net.n, weights=new_weights, uid_seed=net._uid_seed
        )

        # One round in which each endpoint of a changed edge learns of the
        # change (link-layer notification — the CONGEST analogue of a port
        # coming up or down).
        changed = sorted(add_set | remove_set)
        ledger.charge_local(
            "edge_update_notify", rounds=1, messages=2 * len(changed)
        )

        tree_edges = {
            canonical_edge(v, p)
            for v, p in enumerate(solver.tree.parent)
            if p >= 0
        }
        repaired = False
        if not (remove_set & tree_edges):
            try:
                solver.rebind(new_net)
                repaired = True
            except ValueError:
                repaired = False  # e.g. an async engine owns edge state
        if repaired:
            self.stats.repairs += 1
            evicted = self._repair_cached_setups(new_net, remove_set)
        else:
            self.stats.graph_rebuilds += 1
            old = solver.engine
            engine = type(old)(new_net, **old.flags)
            if self.async_overhead is not None:
                # The synchronizer tax already paid stays on the books.
                engine.overhead = old.overhead
                engine.overhead_log = old.overhead_log
            self.solver = PASolver(
                new_net, mode=solver.mode, seed=solver.seed, engine=engine
            )
            ledger.merge(self.solver.tree_ledger, prefix="rebuild:")
            evicted = len(self._cache)
            self.clear_cache()
        self.stats.repair_evictions += evicted
        self.stats.edge_updates += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "session.edge_update", "session",
                {
                    "added": len(add_set), "removed": len(remove_set),
                    "repaired": repaired, "evicted": evicted,
                },
            )
        return EdgeUpdateReport(
            added=len(add_set),
            removed=len(remove_set),
            repaired=repaired,
            evicted_setups=evicted,
            ledger=ledger,
        )

    def _repair_cached_setups(
        self, new_net: Network, removed: set
    ) -> int:
        """Rebind surviving cached setups to the updated network.

        A cached setup survives when its partition still induces
        connected parts and its sub-part forest lost no spanning edge;
        its structures are then rebuilt *structure-identically* on the
        new network (same parent arrays, same ``up_parts``, same block
        annotations; the rebound division reads its wave boundary off
        the new adjacency on first use) and start without a route.
        Everything else is evicted; returns the eviction count.
        """
        evicted = 0
        for key in list(self._cache):
            setup = self._cache[key]
            if self._orchestrator is not None:
                # The old setup object is dead either way (survivors are
                # replaced by rebound copies); drop the workers' pins.
                self._orchestrator.release(setup)
            forest_parent = setup.division.forest.parent
            ok = not any(
                p >= 0 and canonical_edge(v, p) in removed
                for v, p in enumerate(forest_parent)
            )
            if ok and removed:
                # Deletions can disconnect a part (insertions cannot).
                try:
                    validate_partition(new_net, setup.partition)
                except InvalidPartitionError:
                    ok = False
            if not ok:
                self._cache.pop(key)
                self._coarsened_keys.discard(key)
                evicted += 1
                continue
            forest = RootedForest(new_net, forest_parent)
            division = SubPartDivision(
                partition=setup.partition,
                forest=forest,
                rep_of=setup.division.rep_of,
                part_leader=setup.division.part_leader,
            )
            shortcut = Shortcut(
                self.solver.tree, setup.partition, setup.shortcut.up_parts
            )
            # A removed chord may have been a route edge and an added one
            # changes the wave: the rebound copy learns its route afresh.
            self._cache[key] = replace(
                setup, division=division, shortcut=shortcut,
                route=RouteMemo(),
            )
        return evicted

    # ------------------------------------------------------------------
    def solve(
        self,
        setup: PASetup,
        values: Sequence[object],
        agg: Aggregation,
        charge_setup: bool = True,
        phase_prefix: str = "pa",
    ) -> PAResult:
        """One wave pass over a prepared setup — the session's only route.

        The first solve on a setup learns its wave route, every later one
        reuses it (``stats.routed_solves``; see :mod:`repro.core.wave`).
        ``backend="local"`` delegates verbatim.  ``backend="sharded"``
        runs the wave pass on the worker pool when eligible (same plan,
        same rng advance, rounds/messages bit-for-bit) and falls back
        in-process otherwise (``stats.sharded_fallbacks``; traced as a
        ``session.sharded_fallback`` instant whose ``reason`` is
        ``"aggregation"`` or ``"ineligible"``).  A product
        aggregation (:meth:`solve_many`'s batched pass) is one pass like
        any other; it ships by component names and counts its factors
        as ``stats.batched_solves``.
        """
        folded = len(agg.factors)
        self.stats.batched_solves += folded
        if setup.route.delays is not None:
            self.stats.routed_solves += 1
        if self.backend == "sharded":
            from ..shard import encode_aggregation

            if encode_aggregation(agg) is None:
                reason = "aggregation"
            elif not self._shard_eligible():
                reason = "ineligible"
            else:
                self.stats.sharded_solves += 1
                return self.solver.solve_via(
                    self._run_sharded, setup, values, agg,
                    charge_setup=charge_setup, phase_prefix=phase_prefix,
                )
            self.stats.sharded_fallbacks += 1
            tracer = current_tracer()
            if tracer.enabled:
                tracer.instant(
                    "session.sharded_fallback", "session",
                    {"phase": phase_prefix, "reason": reason},
                )
        if not folded:
            self.stats.solves += 1
        self._last_ran_sharded = False
        return self.solver.solve(
            setup, values, agg,
            charge_setup=charge_setup, phase_prefix=phase_prefix,
        )

    def solve_many(
        self,
        setup: PASetup,
        items: Sequence[Tuple[Sequence[object], Aggregation]],
        charge_setup: bool = True,
        phase_prefix: str = "pa_batch",
        phase_prefixes: Optional[Sequence[str]] = None,
    ) -> PABatchResult:
        """k aggregations over one setup; one wave pass when ``batch``.

        With ``batch`` off the aggregations run sequentially under
        ``phase_prefixes`` — the exact solves (order, names, randomness)
        the caller would have issued by hand, so ledgers stay bit-for-bit
        identical to the pre-session code.  Merge the returned
        ``.ledger`` exactly once; never the per-result ledgers.

        Every pass — the batched product or each sequential item — goes
        through :meth:`solve`, so the sharded backend serves it when
        eligible and the counters read the same either way.
        """
        return solve_many_via(
            # PASession.solve, not self.solve: a subclass wrapping both
            # entry points (the perf harness times them as spans) must
            # see one call per request, not a nested pair.
            partial(PASession.solve, self), setup, items,
            charge_setup=charge_setup, phase_prefix=phase_prefix,
            phase_prefixes=phase_prefixes, batched=self.batch,
        )


def ensure_session(
    session: Optional[PASession],
    net: Network,
    mode: str = RANDOMIZED,
    seed: int = 0,
) -> PASession:
    """The algorithms' session acquisition: adopt one, or construct one.

    With no ``session`` this is ``PASession(net, mode=mode, seed=seed)`` —
    ``PASolver(net, mode, seed)`` behind a default session, exactly the
    pipeline the algorithms always built.  A given session is used as is;
    its mode must be the ``mode`` the algorithm was called with, because
    the algorithm picks its own rules (Boruvka's merging discipline, the
    reported ``meta``) from that argument while PA runs in the session's.
    """
    if session is None:
        return PASession(net, mode=mode, seed=seed)
    if session.mode != mode:
        raise ValueError(
            f"mode={mode!r} contradicts the session's mode "
            f"{session.mode!r}; pass the mode the session was built with"
        )
    return session
