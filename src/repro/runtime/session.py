"""The PA session: cross-phase reuse of the Theorem 1.2 pipeline.

Every application in the paper (Corollaries 1.3-1.5, A.1-A.3) is a loop of
Part-Wise Aggregation solves, yet a bare :class:`~repro.core.pa.PASolver`
treats each ``prepare`` as a one-shot.  :class:`PASession` owns a solver
(network, mode, seed, ledger conventions) and adds four opt-in
capabilities on top:

* **Setup caching** (``reuse=True``): ``prepare`` memoizes on a partition
  fingerprint ``(part_of, leaders)``; a hit (the k-th min-cut packing
  tree's singleton partition, a Boruvka phase that merged nobody) returns
  the cached setup with an empty setup ledger.
* **Projection** (``reuse=True``): for a merge-only coarsening or a
  split-only refinement of a prepared partition, ``prepare_incremental``
  carries the previous machinery over (relabeled shortcut, sub-part
  forest cut at the new borders) and builds no part anew; the block
  count is verified with PA itself (Algorithm 2) only when the parent's
  counts do not imply the budget, and a setup over budget is built
  afresh — reuse can cost rounds, never correctness.
* **Edge updates** (:meth:`PASession.apply_edge_updates`): when no
  spanning-tree edge is removed, every cached setup is carried onto the
  new network verbatim (shortcuts are ``T``-restricted); otherwise a
  counted full rebuild.
* **Batched multi-aggregate solves** (``batch=True``): :meth:`solve_many`
  runs k aggregations over one setup in a single wave pass (see
  docs/architecture.md, "Runtime sessions", for when that is
  ledger-legitimate).

A fresh prepare, a projection, its rebuild and an edge repair are one
construction, ``PASolver._build``, over a carried base and a set of dirty
parts the session computes (docs/architecture.md, "One prepare body").
Every setup ``prepare_incremental`` builds over a previous one — carried,
rebuilt or fresh — opens with one engine-run ``part_exchange`` round, the
only place a node learns its neighbors' new parts: the nodes whose part
leader changed send the new leader's uid, after a merge only to neighbors
outside their old part.  A cache hit sends nothing; every node held that
partition before and remembers its neighbors' parts under it.

With both flags off (the default) every call but that exchange delegates
verbatim to the underlying solver: same code path, same randomness, same
ledger entries, bit for bit — pinned by tests/runtime/test_session.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.theory import TABLE1
from ..congest.errors import InvalidPartitionError
from ..congest.ledger import CostLedger
from ..congest.network import Network, canonical_edge
from ..obs.tracer import current_tracer
from ..core.aggregation import Aggregation
from ..core.corefast import block_target_for, verify_block_parameters
from ..core.pa import (
    PABatchResult, PAResult, PASetup, PASolver, RANDOMIZED, solve_many_via,
)
from ..core.shortcuts import relabel_shortcut
from ..core.subparts import SubPartDivision
from ..core.treeops import announce_labels
from ..core.trees import ROOT, RootedForest
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

    Ascending per old part.  Only *merge-only* (every old part lands in
    one new part) and *split-only* (every new part draws from one old
    part) relations are returned; parts crossing, or different node sets,
    give ``None`` — the caller then prepares afresh.
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


#: What ``session.prepare`` reports for a construction of each kind.
_OUTCOMES = {None: "full", "coarsen": "coarsened", "refine": "refined"}


def _kind(image: Sequence[Sequence[int]]) -> str:
    """``"coarsen"`` for a merge-only image, ``"refine"`` for a split."""
    return "coarsen" if all(len(new) == 1 for new in image) else "refine"


def _carry(
    solver: PASolver,
    previous: PASetup,
    partition: Partition,
    image: Sequence[Sequence[int]],
    leaders: Tuple[int, ...],
    ledger: CostLedger,
) -> PASetup:
    """What ``previous`` hands a setup for ``partition`` through
    ``image`` (:func:`_partition_image`), on the solver's current network
    and tree: the base ``PASolver._build`` starts from.

    1. The shortcut is relabeled (:func:`relabel_shortcut`: a merged part
       takes the union of its constituents' edge sets, a fragment its
       ancestor's) — no message, the merge / split broadcast carried the
       new ids.
    2. The sub-part forest is cut where a parent edge now crosses parts,
       the orphaned child representing its subtree (nothing is cut under
       merges).
    3. Its ledger is ``ledger``: what the caller charged before the
       carry — the part exchange (:func:`_part_exchange`) that told the
       nodes their neighbors' new part ids, the division's wave boundary.

    Each part's bound is what the previous ones imply: a union of edge
    sets has at most as many components as its terms in total, and a
    fragment keeps its ancestor's edge set whole.  Under the identity
    image (an edge repair) the annotations are carried too; any other
    carry leaves them ``None``, to be annotated anew.
    """
    net = solver.net
    forest, rep_of = previous.division.forest, previous.division.rep_of
    part = np.asarray(partition.part_of, dtype=np.int64)
    fparent = np.asarray(forest.parent, dtype=np.int64)
    severed = (fparent >= 0) & (part[fparent] != part)
    if severed.any() or forest.net is not net:
        fparent[severed] = ROOT
        forest = RootedForest(net, fparent.tolist())
        rep_of = tuple(forest.plan.root_of.tolist())

    bound = [0] * partition.num_parts
    for old_pid, new_pids in enumerate(image):
        for new_pid in new_pids:
            bound[new_pid] += previous.block_bound[old_pid]
    identity = all(new == [old] for old, new in enumerate(image))
    return PASetup(
        partition=partition,
        leaders=leaders,
        division=SubPartDivision(
            partition=partition, forest=forest, rep_of=rep_of,
            part_leader=leaders,
        ),
        shortcut=relabel_shortcut(
            solver.tree, previous.shortcut, partition, image
        ),
        annotations=previous.annotations if identity else None,
        setup_ledger=ledger,
        block_bound=tuple(bound),
    )


def _part_exchange(
    solver: PASolver,
    previous: PASetup,
    partition: Partition,
    image: Optional[Sequence[Sequence[int]]],
    leaders: Optional[Sequence[int]],
) -> CostLedger:
    """The ``part_exchange`` a setup built over ``previous`` opens with.

    A node *changed* when its new part's leader is not its old part's;
    each changed node sends its new leader's uid, in one
    :func:`~repro.core.treeops.announce_labels` round.  Under a
    merge-only ``image`` it tells only the neighbors outside its old part
    (its old part-mates heard the same id from the merge broadcast that
    told it); under a split, or no image, every neighbor.  Nobody changed
    means no phase.  A ``previous`` over another node set is no
    predecessor: nothing is sent.
    """
    ledger = CostLedger()
    net = solver.net
    old, new = previous.partition.part_of, partition.part_of
    if not len(old) == len(new) == net.n:
        return ledger
    leaders = solver.checked_leaders(partition, leaders)
    old_part = np.asarray(old, dtype=np.int64)
    new_leader = np.asarray(leaders, dtype=np.int64)[
        np.asarray(new, dtype=np.int64)
    ]
    changed = new_leader != np.asarray(previous.leaders, dtype=np.int64)[old_part]
    announce_labels(
        solver.engine, net, net.array_views.uid[new_leader], ledger,
        "part_exchange", changed=changed,
        old_part=old_part if image and _kind(image) == "coarsen" else None,
    )
    return ledger


@dataclass
class EdgeUpdateReport:
    """What :meth:`PASession.apply_edge_updates` did with one update batch.

    ``repaired``: the tree survived and the cache was carried over, else
    the tree was re-elected (charged to ``ledger`` under ``rebuild:``).
    ``evicted_setups``: cached setups the update invalidated (a part
    disconnected, a sub-part tree cut — or, on rebuild, everything).
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

    reuse:
        Enable setup caching and incremental projection.
    batch:
        Enable single-wave multi-aggregate solves in :meth:`solve_many`.
    backend / workers / shard_min_n:
        ``backend="sharded"`` runs eligible wave passes on the forked
        worker pool of :mod:`repro.shard` (one shard per conflict
        component, per-shard ledgers merged bit for bit with the
        in-process engines).  ``workers`` sizes the pool
        (:func:`repro.procpool.resolve_workers`; ``"auto"`` = the cpus
        this process is granted); ``shard_min_n`` keeps smaller networks
        in-process.  What the backend cannot serve — async engines,
        aggregations outside the stock registry, no ``fork`` — runs
        in-process, counted in ``stats.sharded_fallbacks``.
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
        reuse: bool = False,
        batch: bool = False,
        solver: Optional[PASolver] = None,
        backend: str = "local",
        workers: object = "auto",
        shard_min_n: int = 4096,
    ) -> None:
        if backend not in ("local", "sharded"):
            raise ValueError(f"unknown backend {backend!r}")
        if solver is not None:
            theirs = solver.net
            if theirs is not net and (
                theirs.n != net.n
                or theirs.adjacency_csr() != net.adjacency_csr()
                or theirs.uid != net.uid
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
        # The setup memo, fingerprint -> setup.
        self._cache: Dict[Fingerprint, PASetup] = {}
        # Keys of projected entries: the one kind a later coarsening may
        # supersede (partitions only coarsen forward in a phase loop).  A
        # fresh prepare's entry, a loop entry point, is never superseded.
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
        for key in list(self._cache):
            self._drop(key)
        self._coarsened_keys.clear()

    def close(self) -> None:
        """Release the sharded worker pool; idempotent.  A closed session
        keeps serving — the pool is rebuilt on the next sharded solve."""
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
        ``barrier_seconds``, ``merge_seconds``, ``ship_seconds``.
        ``ship_seconds`` is the wall time of the orchestrator's most
        recent ship, the solve's setup's unless another setup shipped
        since: a warm solve ships nothing and reports the ship its setup
        last paid for (the value ``shard.ship_s`` records).  ``None``
        whenever the most recent solve ran in-process — never a stale
        report from an earlier sharded solve.
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
            # A worker died or pickling failed mid-wave: reap the suspect
            # pool now (a retry lazily builds a fresh one).
            self.close()
            raise
        self._last_ran_sharded = True
        return outcome

    # -- cache mechanics ------------------------------------------------
    def _drop(self, key: Fingerprint) -> None:
        """Remove one cache entry — every removal comes through here, so
        the shard workers' pin on a shipped setup goes with it."""
        setup = self._cache.pop(key)
        self._coarsened_keys.discard(key)
        if self._orchestrator is not None:
            self._orchestrator.release(setup)

    # ------------------------------------------------------------------
    def block_budget(self) -> int:
        """Max block parameter a carried shortcut may keep: the target the
        constructions freeze parts at
        (:func:`~repro.core.corefast.block_target_for`)."""
        return block_target_for(self.net.n)

    def _cache_hit(self, key: Fingerprint) -> Optional[PASetup]:
        """The memoized setup for ``key`` with an empty ledger, counted."""
        cached = self._cache.get(key)
        if cached is None:
            return None
        self.stats.cache_hits += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant("session.cache_hit", "session")
        return replace(cached, setup_ledger=CostLedger())

    def prepare(
        self,
        partition: Partition,
        leaders: Optional[Sequence[int]] = None,
    ) -> PASetup:
        """Build (or fetch) the PA machinery for a partition.

        With ``reuse`` off this is exactly
        ``solver.prepare(partition, leaders)``.
        With ``reuse`` on, a fingerprint hit returns the cached setup with
        an *empty* setup ledger (construction was already charged when it
        was first built); a miss builds, memoizes and returns as usual.
        """
        key = partition_fingerprint(partition, leaders) if self.reuse else None
        if key is not None:
            cached = self._cache_hit(key)
            if cached is not None:
                return cached
        setup = self._prepare(partition, leaders)
        if key is not None:
            self._cache[key] = setup
        return setup

    def prepare_incremental(
        self,
        previous: Optional[PASetup],
        partition: Partition,
        leaders: Optional[Sequence[int]] = None,
    ) -> PASetup:
        """``prepare`` that may carry ``previous`` over instead of rebuilding.

        With no ``previous`` this is exactly :meth:`prepare`.  Otherwise a
        setup it builds opens with the part exchange
        (:func:`_part_exchange`): the nodes whose part leader changed tell
        their neighbors the new one.  With ``reuse`` on and ``partition``
        a merge-only coarsening or a split-only refinement of
        ``previous``'s, the previous machinery is carried over
        (:meth:`_prepare`); with ``reuse`` off, or no such relation, the
        build is a fresh one.  A cache hit sends nothing: every node held
        that partition before and remembers its neighbors' parts under
        it.  Either way the setup is correct for PA over ``partition``;
        only its cost differs.
        """
        if previous is None:
            return self.prepare(partition, leaders=leaders)
        key = partition_fingerprint(partition, leaders) if self.reuse else None
        if key is not None:
            cached = self._cache_hit(key)
            if cached is not None:
                return cached
        image = _partition_image(previous.partition, partition)
        exchange = _part_exchange(
            self.solver, previous, partition, image, leaders
        )
        if key is None or image is None:
            setup = self._prepare(partition, leaders, ledger=exchange)
            if key is not None:
                self._cache[key] = setup
            return setup
        setup = self._prepare(
            partition, leaders, previous, image, ledger=exchange
        )
        self._coarsened_keys.add(key)  # either direction
        self._cache[key] = setup
        if _kind(image) == "refine":
            # Split partitions can re-merge (a service tenant re-presenting
            # yesterday's grouping): the parent entry stays.
            return setup
        # The previous link of a coarsening chain cannot recur (labels
        # only merge forward; a no-merge retry re-presents the entry just
        # stored).  A fresh prepare's entry is never superseded.
        for prev_key in (
            partition_fingerprint(previous.partition, previous.leaders),
            partition_fingerprint(previous.partition, None),
        ):
            if prev_key != key and prev_key in self._coarsened_keys:
                self._drop(prev_key)
        return setup

    def _prepare(
        self,
        partition: Partition,
        leaders: Optional[Sequence[int]],
        previous: Optional[PASetup] = None,
        image: Optional[Sequence[Sequence[int]]] = None,
        dirty: Collection[int] = (),
        ledger: Optional[CostLedger] = None,
    ) -> PASetup:
        """The session's one construction, traced and counted.

        The dirty parts — those ``PASolver._build`` builds anew — are
        decided here:

        * no ``previous``: every part, a fresh construction;
        * ``previous`` and its ``image`` onto ``partition``: the
          :func:`_carry` with no part dirty (or the ``dirty`` parts given;
          all of them is fresh).  The carried bound is verified with PA
          (Algorithm 2, phases ``{coarsen,refine}_verify_*``, the setup's
          first solve) only when it exceeds :meth:`block_budget`;
        * a verified count over :meth:`block_budget`, or a congestion over
          ``max(previous c, general-graph envelope)``: every part again,
          charged under ``rebuild:`` after the carry's own phases.

        The setup ledger opens with ``ledger``'s phases, the part exchange
        :meth:`prepare_incremental` ran (none when not given).  One
        ``session.prepare`` span reports the outcome (``full``,
        ``coarsened``, ``refined`` or ``rebuild``; ``verified``
        ``implied`` or ``ran``; ledger totals, largest bound, (b, c),
        sub-parts), and the counters are read off it.
        """
        solver = self.solver
        fresh = previous is None or len(dirty) == partition.num_parts
        kind = None if fresh else _kind(image)
        with current_tracer().span("session.prepare", "session") as args:
            args["outcome"] = _OUTCOMES[kind]
            opening = CostLedger() if ledger is None else ledger
            base = None if fresh else _carry(
                solver, previous, partition, image,
                solver.checked_leaders(partition, leaders), opening,
            )
            setup = solver._build(partition, leaders, base, dirty)
            if base is None and opening.phases():
                opening.merge(setup.setup_ledger)
                setup.setup_ledger = opening
            if base is not None:
                budget, counts = self.block_budget(), setup.block_bound
                implied = max(counts) <= budget
                args["verified"] = "implied" if implied else "ran"
                if not implied:
                    counts = verify_block_parameters(
                        solver.engine, solver.net, partition, setup.division,
                        setup.shortcut, setup.annotations, setup.setup_ledger,
                        randomized=(solver.mode == RANDOMIZED),
                        rng=solver.rng, phase_prefix=f"{kind}_verify",
                        route=setup.route,
                    )
                    setup.block_bound = tuple(
                        setup.annotations.block_counts(partition.num_parts)
                    )
                envelope = TABLE1["general"].congestion(
                    solver.net.n, solver.diameter, 1
                )
                cap = max(previous.shortcut.congestion(), math.ceil(envelope))
                if max(counts) > budget or setup.shortcut.congestion() > cap:
                    args["outcome"] = "rebuild"
                    ledger = setup.setup_ledger
                    setup = solver._build(partition, setup.leaders)
                    ledger.merge(setup.setup_ledger, prefix="rebuild:")
                    setup = replace(setup, setup_ledger=ledger)
            args["rounds"] = setup.setup_ledger.rounds
            args["messages"] = setup.setup_ledger.messages
            args["bound"] = max(setup.block_bound)
            args["b"], args["c"] = setup.quality()
            args["subparts"] = setup.division.num_subparts()
        stats = self.stats
        stats.prepares += args["outcome"] in ("full", "rebuild")
        stats.coarsenings += kind == "coarsen"
        stats.refinements += kind == "refine"
        stats.implied += args.get("verified") == "implied"
        stats.rebuilds += args["outcome"] == "rebuild"
        return setup

    # -- evolving graphs ------------------------------------------------
    def apply_edge_updates(
        self,
        add: Sequence[Tuple[int, int]] = (),
        remove: Sequence[Tuple[int, int]] = (),
        weights: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> EdgeUpdateReport:
        """Adopt an edge insert/delete batch, repairing instead of rebuilding.

        The new :class:`Network` keeps the node count and uid seed, so
        every node keeps its uid.  When no removed edge is a spanning-tree
        edge the tree survives, and with it every ``T``-restricted
        shortcut: the solver is rebound
        (:meth:`~repro.core.pa.PASolver.rebind`) and the cache carried
        over (:meth:`_repair_cached_setups`).  A removed tree edge, or an
        engine that cannot be rebound (asynchronous), elects a fresh tree
        with the same mode and seed — charged under ``rebuild:`` — and
        drops the cache.

        ``weights`` gives the added edges' weights on a weighted network
        (required there, rejected on unweighted ones and for any edge not
        being added).  The report's ledger is the caller's to merge, as a
        setup ledger is.
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
        if weights is not None:
            if net.weights is None:
                raise ValueError("weights given for an unweighted network")
            stray = sorted(
                {canonical_edge(u, v) for u, v in weights} - add_set
            )
            if stray:
                raise ValueError(
                    f"weights given for edges not being added: {stray[:5]}"
                )

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
            given = {
                canonical_edge(u, v): w
                for (u, v), w in (weights or {}).items()
            }
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
            canonical_edge(v, p) for v, p in enumerate(solver.tree.parent)
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
            len(add_set), len(remove_set), repaired, evicted, ledger
        )

    def _repair_cached_setups(
        self, new_net: Network, removed: set
    ) -> int:
        """Carry the cached setups onto the updated network.

        Each goes through :func:`_carry` with the identity image and no
        part dirty: same parts, edge sets, annotations and bound, its
        sub-part forest on the new adjacency (the division reads its wave
        boundary off it on first use), and no route — a removed chord may
        have carried it and an added one changes the wave.  A setup whose
        part a deletion disconnected, or whose sub-part forest lost an
        edge, is evicted instead, never served stale; returns how many.
        """
        evicted = 0
        for key, setup in list(self._cache.items()):
            identity = [[pid] for pid in range(setup.partition.num_parts)]
            try:
                if removed:  # deletions can disconnect a part
                    validate_partition(new_net, setup.partition)
                carried = _carry(
                    self.solver, setup, setup.partition, identity,
                    setup.leaders, CostLedger(),
                )
            except (InvalidPartitionError, ValueError):
                # A part lost its connectivity, or the carried forest a
                # parent edge (RootedForest checks each on the new net).
                self._drop(key)
                evicted += 1
                continue
            if self._orchestrator is not None:
                # The old object is dead: drop the workers' pins.
                self._orchestrator.release(setup)
            self._cache[key] = carried
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

        A setup learns its wave route once — in the verification that
        accepted its build, or else in its first solve — and every other
        solve reuses it (``stats.routed_solves``; see
        :mod:`repro.core.wave`).
        ``backend="sharded"`` runs the pass on the worker pool when
        eligible (same plan, same rng advance, same ledger) and in-process
        otherwise (``stats.sharded_fallbacks``; a
        ``session.sharded_fallback`` instant with ``reason``
        ``"aggregation"`` or ``"ineligible"``).  A product aggregation
        (:meth:`solve_many`'s batched pass) is one pass that counts its
        factors as ``stats.batched_solves``.
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
        ``phase_prefixes`` — the exact solves a caller would issue by
        hand.  Merge the returned ``.ledger`` exactly once, never the
        per-result ledgers.  Every pass goes through :meth:`solve`.
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

    With no ``session`` this is ``PASession(net, mode=mode, seed=seed)``.
    A given session is used as is; its mode must be ``mode``, because the
    algorithm picks its own rules (Boruvka's merging discipline, the
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
