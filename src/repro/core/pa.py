"""Part-Wise Aggregation, end to end (Theorem 1.2).

:class:`PASolver` assembles the full pipeline:

1. a BFS spanning tree ``T`` with an elected leader (or a given root) —
   built once per network, reused across partitions;
2. a sub-part division of the input partition — randomized (Algorithm 3)
   or deterministic (Algorithm 6);
3. a ``T``-restricted shortcut — randomized (CoreFast / Algorithm 4) or
   deterministic (heavy-path doubling / Algorithms 7-8) — with block
   annotations and verified block parameters;
4. the PA waves of Algorithm 1 (broadcast, reversal, replay).

Every step is executed on the CONGEST engine and charged to the result's
ledger.  Part leaders are the standing assumption of Section 4 (every
member knows its part's leader); by default the minimum-uid member is
used, and :mod:`repro.core.no_leader` (Algorithm 9) discharges the
assumption distributively when needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..congest.async_engine import AsyncEngine
from ..congest.engine import Engine
from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network
from ..congest.schedule import Schedule
from ..graphs.partitions import Partition, validate_partition
from ..obs.tracer import current_tracer
from .aggregation import Aggregation
from .array_wave import FactorValues, pack_values
from .blocks import BlockAnnotations, annotate_blocks
from .corefast import (
    ShortcutBuildResult, _corefast_claim, build_shortcut_by_doubling,
)
from .shortcuts import Shortcut
from .spanning_tree import SpanningTreeResult, bfs_tree, elect_leader_and_bfs_tree
from .subparts import SubPartDivision, _divide_randomized
from .trees import RootedForest
from .wave import RouteMemo, plan_pa_waves, run_planned_waves

RANDOMIZED = "randomized"
DETERMINISTIC = "deterministic"


@dataclass
class PASetup:
    """Partition-specific machinery, reusable across many aggregations.

    ``route`` is what the setup's first solve learned
    (:class:`~repro.core.wave.RouteMemo`): a function of ``division`` and
    ``shortcut``, so a copy that keeps both shares it and a copy that
    replaces either must start a fresh one.  Left out, it is the route of
    the verification that accepted these annotations when that ran on
    this very ``division`` and ``shortcut`` (``annotations.verified``, set
    by a shortcut build), so that verification was the setup's first
    solve; otherwise a fresh one.  Either way a setup pays at most one
    token wave.

    ``block_bound`` is, per part, an upper bound on its number of
    nontrivial blocks that the part already holds.  Left out, it is the
    annotations' own count — right for every setup whose counts PA has
    summed (a build's last verification, a projection's); a part a
    session carried over from a previous setup without verifying it
    holds what the previous bound implies instead (docs/architecture.md,
    "One prepare body").
    """

    partition: Partition
    leaders: Tuple[int, ...]
    division: SubPartDivision
    shortcut: Shortcut
    annotations: BlockAnnotations
    setup_ledger: CostLedger
    route: Optional[RouteMemo] = field(default=None, repr=False)
    block_bound: Optional[Tuple[int, ...]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.route is None:
            # ``annotations`` is None on a carry that has yet to annotate.
            division, shortcut, route = getattr(
                self.annotations, "verified", None
            ) or (None, None, None)
            if division is self.division and shortcut is self.shortcut:
                self.route = route
            else:
                self.route = RouteMemo()
        if self.block_bound is None:
            self.block_bound = tuple(
                self.annotations.block_counts(self.partition.num_parts)
            )

    def quality(self) -> Tuple[int, int]:
        """(block parameter, congestion) of the constructed shortcut."""
        return self.shortcut.quality()


@dataclass
class PAResult:
    """Outcome of one Part-Wise Aggregation solve."""

    aggregates: Dict[int, object]
    value_at_node: List[object]
    ledger: CostLedger
    setup: PASetup

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    @property
    def messages(self) -> int:
        return self.ledger.messages


@dataclass
class PABatchResult:
    """Outcome of a multi-aggregate solve (:meth:`PASolver.solve_many`).

    ``per_agg[k]`` holds the k-th aggregation's per-part aggregates and
    per-node values.  ``ledger`` carries the *whole batch's* metered cost
    exactly once; when the batch ran in one wave pass the per-result
    ledgers are the same object, so merge ``ledger`` once — never each
    ``per_agg[k].ledger``.
    """

    per_agg: List[PAResult]
    ledger: CostLedger
    setup: PASetup
    batched: bool

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    @property
    def messages(self) -> int:
        return self.ledger.messages


def product_aggregation(aggs: Sequence[Aggregation]) -> Aggregation:
    """Componentwise product of aggregations over equal-length tuples.

    Components may be ``None`` ("no value yet" for that aggregate at that
    node); the product merges each slot with its aggregation's None-aware
    ``merge``.  Commutativity/associativity follow componentwise from the
    factors', which the product records (``.factors``) so a consumer can
    tell a k-fold batch from a single aggregation — the session counts
    batched solves and the sharded backend ships products by component
    name from it.
    """
    agg_tuple = tuple(aggs)

    def combine(a, b):
        return tuple(
            agg.merge(x, y) for agg, x, y in zip(agg_tuple, a, b)
        )

    name = "batch(" + ",".join(agg.name for agg in agg_tuple) + ")"
    return Aggregation(name, combine, factors=agg_tuple)


def _general_shortcut(
    engine, net, partition, division, tree, diameter, ledger, rng, carried
) -> ShortcutBuildResult:
    """The general-graph shortcut construction (Table 1 row 1), which
    :meth:`PASolver.prepare` runs on every graph, the Tables 1-2 families
    included.

    Randomized CoreFast (Algorithm 4) on the pipeline's random source
    ``rng``; Algorithms 7-8 (heavy-path doubling) when there is none —
    which is what a deterministic :meth:`PASolver.prepare` hands out.
    With ``carried = (shortcut, dirty)`` it claims only for the dirty
    parts (see :func:`~repro.core.corefast.build_shortcut_by_doubling`).
    """
    if rng is not None:
        claim, prefix = _corefast_claim(engine, tree, ledger, rng), "verify"
    else:
        from .det_shortcut import _heavy_path_claim

        claim, prefix = _heavy_path_claim(engine, tree, ledger), "det_verify"
    return build_shortcut_by_doubling(
        engine, net, partition, division, tree, diameter, ledger, claim,
        prefix, rng, None, None, None, True, carried,
    )


class PASolver:
    """Round- and message-optimal Part-Wise Aggregation (Theorem 1.2).

    Parameters
    ----------
    net:
        The communication graph (must be connected).
    mode:
        ``"randomized"`` for the O~(bD + c)-round variant,
        ``"deterministic"`` for the O~(b(D + c)) variant.
    seed:
        Seed for all randomness (election candidates, node sampling,
        claim priorities, delays).
    root:
        Optional known root for the BFS tree; if omitted a leader is
        elected distributively (flood-min among the candidates that
        sample themselves in randomized mode, among every node in
        deterministic mode).
    schedule:
        Opt into asynchronous execution: every engine phase of the
        pipeline (tree, division, shortcut, waves) runs on an
        :class:`~repro.congest.AsyncEngine` under the given
        :class:`~repro.congest.Schedule`
        (:class:`~repro.congest.SynchronousSchedule` is the delay-0 one).
        The ledgers stay those of the synchronous cost model, under every
        schedule; the alpha-synchronizer's own cost accrues separately on
        ``solver.engine.overhead``.  Default: off, the synchronous
        engine, same code path bit for bit.
    engine:
        A pre-built engine to run every phase on (mutually exclusive
        with ``schedule``; ``strict_bits``/``strict_edges`` are then the
        engine's own).  This is how the recovery runtime shares one
        fault-injecting :class:`~repro.congest.AsyncEngine` — with its
        global pulse clock, overhead ledger and fault log — across the
        fresh solvers of successive recovery attempts.

    Which loop computes a phase is not a setting: every kernel phase has
    one implementation, its array kernel, under a fault plan too.
    """

    def __init__(
        self,
        net: Network,
        mode: str = RANDOMIZED,
        seed: int = 0,
        root: Optional[int] = None,
        strict_bits: bool = True,
        strict_edges: bool = True,
        schedule: Optional[Schedule] = None,
        engine: Optional[object] = None,
    ) -> None:
        if mode not in (RANDOMIZED, DETERMINISTIC):
            raise ValueError(f"unknown mode {mode!r}")
        if engine is not None and schedule is not None:
            raise ValueError(
                "pass either engine or schedule, not both "
                "(the engine already owns its schedule)"
            )
        self.net = net
        self.mode = mode
        self.seed = seed
        self.rng = random.Random(seed)
        if engine is not None:
            self.engine = engine
            self.schedule = getattr(engine, "schedule", None)
        elif schedule is not None:
            self.schedule = schedule
            self.engine = AsyncEngine(
                net, schedule=schedule,
                strict_bits=strict_bits, strict_edges=strict_edges,
            )
        else:
            self.schedule = schedule
            self.engine = Engine(
                net, strict_bits=strict_bits, strict_edges=strict_edges
            )

        self.tree_ledger = CostLedger()
        if root is None:
            self.tree_result = elect_leader_and_bfs_tree(
                self.engine, net, self.tree_ledger,
                rng=self.rng if mode == RANDOMIZED else None,
            )
        else:
            self.tree_result = bfs_tree(self.engine, net, root, self.tree_ledger)
        self.tree: RootedForest = self.tree_result.tree
        #: The globally-known diameter estimate (2-approximation via BFS).
        self.diameter: int = max(1, 2 * self.tree_result.depth)
        tracer = current_tracer()
        if tracer.enabled:
            # What ``python -m repro.obs explain`` holds the ledger against.
            tracer.instant("pa.net", "pa", {
                "n": net.n, "m": net.m, "depth": self.tree_result.depth,
            })

    # ------------------------------------------------------------------
    def rebind(self, net: Network) -> None:
        """Adopt an updated edge set that preserves the spanning tree.

        The session's edge repair
        (:meth:`repro.runtime.PASession.apply_edge_updates`): ``net`` has
        the same node count and uid seed (so every node keeps its uid) and
        every current tree edge, so the tree — its depth, hence the
        ``2 * depth`` diameter estimate, included — and every
        tree-restricted shortcut survive; only network and engine change
        (the new engine has the old one's type and flags).
        An asynchronous schedule or adopted engine owns state (virtual
        clocks, fault plans) a fresh engine would drop: it cannot rebind.
        """
        if self.schedule is not None or isinstance(self.engine, AsyncEngine):
            raise ValueError(
                "cannot rebind an asynchronous solver to an updated "
                "network (the schedule owns per-edge state)"
            )
        if net.n != self.net.n:
            raise ValueError(
                f"rebind must preserve the node set ({self.net.n} -> {net.n})"
            )
        if net.uid != self.net.uid:
            raise ValueError("rebind must preserve the uid assignment")
        # RootedForest validates every parent edge against the new net —
        # a removed tree edge fails loudly here, not mid-wave.
        tree = RootedForest(net, self.tree.parent)
        self.net = net
        self.tree = tree
        self.tree_result = SpanningTreeResult(
            tree=tree,
            root=self.tree_result.root,
            depth=self.tree_result.depth,
        )
        self.engine = type(self.engine)(net, **self.engine.flags)

    def default_leaders(self, partition: Partition) -> Tuple[int, ...]:
        """Minimum-uid member of each part (the Section 4 assumption)."""
        return tuple(
            min(members, key=lambda v: self.net.uid[v])
            for members in partition.members
        )

    def checked_leaders(
        self, partition: Partition, leaders: Optional[Sequence[int]]
    ) -> Tuple[int, ...]:
        """``leaders`` (default: :meth:`default_leaders`), each in its part."""
        if leaders is None:
            return self.default_leaders(partition)
        leaders = tuple(leaders)
        for pid, leader in enumerate(leaders):
            if partition.part_of[leader] != pid:
                raise ValueError(f"leader {leader} is not in part {pid}")
        return leaders

    def prepare(
        self,
        partition: Partition,
        leaders: Optional[Sequence[int]] = None,
    ) -> PASetup:
        """Build division + shortcut + annotations for a partition.

        The returned :class:`PASetup` can be reused for any number of
        aggregations over the same partition; its construction cost is in
        ``setup.setup_ledger`` and is also folded into each solve's ledger
        exactly once by :meth:`solve` (pass ``charge_setup=False`` there to
        opt out when amortizing).
        """
        return self._build(partition, leaders)

    def _build(
        self,
        partition: Partition,
        leaders: Optional[Sequence[int]],
        base: Optional[PASetup] = None,
        dirty: Collection[int] = (),
    ) -> PASetup:
        """The one construction: divide, claim and annotate the dirty parts.

        With no ``base`` every part is dirty: a fresh :meth:`prepare`.
        Otherwise ``base`` is a session's carry onto ``partition``
        (``annotations`` ``None`` when an edge set changed) and only the
        ``dirty`` parts are divided (Algorithm 3 / 6) and claimed for by
        the general construction; the others keep their carried sub-part
        trees, edge sets and bound.  With no part dirty no builder runs:
        the carried shortcut is annotated, unless that was carried too.
        """
        rng = self.rng if self.mode == RANDOMIZED else None
        if base is None:
            validate_partition(self.net, partition)
            leaders = self.checked_leaders(partition, leaders)
            ledger, dirty = CostLedger(), range(partition.num_parts)
            division = shortcut = annotations = None
            bound = [0] * partition.num_parts
        else:
            leaders, ledger = base.leaders, base.setup_ledger
            division, shortcut = base.division, base.shortcut
            annotations, bound = base.annotations, list(base.block_bound)
        if dirty:
            on = (self.engine, self.net, partition)
            if rng is not None:
                division = _divide_randomized(
                    *on, leaders, self.diameter, ledger, rng, division, dirty
                )
            else:
                from .subparts_det import _divide_deterministic

                division = _divide_deterministic(
                    *on, leaders, self.diameter, ledger, division, dirty
                )
            build = _general_shortcut(
                *on, division, self.tree, self.diameter, ledger, rng,
                None if base is None else (shortcut, dirty),
            )
            shortcut, annotations = build.shortcut, build.annotations
            for pid in dirty:
                bound[pid] = build.block_counts[pid]
        elif annotations is None:
            annotations = annotate_blocks(self.engine, shortcut, ledger)
        return PASetup(
            partition=partition,
            leaders=leaders,
            division=division,
            shortcut=shortcut,
            annotations=annotations,
            setup_ledger=ledger,
            block_bound=tuple(bound),
        )

    def solve(
        self,
        setup: PASetup,
        values: Sequence[object],
        agg: Aggregation,
        charge_setup: bool = True,
        phase_prefix: str = "pa",
    ) -> PAResult:
        """Aggregate ``values`` part-wise with ``agg`` (Algorithm 1)."""
        return self.solve_via(
            self._run_waves, setup, values, agg,
            charge_setup=charge_setup, phase_prefix=phase_prefix,
        )

    def _run_waves(self, setup, plan, values, agg, ledger, phase_prefix):
        """The in-process run step: the wave phases on this engine."""
        return run_planned_waves(
            self.engine, self.net, setup.partition, setup.division,
            setup.shortcut, setup.annotations, values, agg, ledger, plan,
            phase_prefix=phase_prefix, route=setup.route,
        )

    def solve_via(
        self,
        run,
        setup: PASetup,
        values: Sequence[object],
        agg: Aggregation,
        charge_setup: bool = True,
        phase_prefix: str = "pa",
    ) -> PAResult:
        """The one solve body, with the planned-wave run step as argument.

        The plan is computed here from the *global* structures — advancing
        ``self.rng`` exactly once per solve — and ``run(setup, plan,
        values, agg, ledger, phase_prefix)`` executes the wave phases
        under it on ``setup.route`` (two wire passes and a forest pass on
        a setup's first solve, one all-reduce on the forest after, in
        diam(T) ticks of the forest T), charging
        ``ledger`` and returning a
        :class:`~repro.core.wave.PAWaveResult`: in-process for
        :meth:`solve`, the shard orchestrator's for a sharded session.
        """
        ledger = CostLedger()
        if charge_setup:
            ledger.merge(setup.setup_ledger, prefix="setup:")
        values = pack_values(values, agg)
        plan = plan_pa_waves(
            self.net, setup.partition, setup.division,
            setup.shortcut, values, agg,
            randomized=(self.mode == RANDOMIZED), rng=self.rng,
            phase_prefix=phase_prefix,
        )
        outcome = run(setup, plan, values, agg, ledger, phase_prefix)
        return PAResult(
            aggregates=outcome.aggregates,
            value_at_node=outcome.value_at_node,
            ledger=ledger,
            setup=setup,
        )

    def solve_many(
        self,
        setup: PASetup,
        items: Sequence[Tuple[Sequence[object], Aggregation]],
        charge_setup: bool = True,
        phase_prefix: str = "pa_batch",
        phase_prefixes: Optional[Sequence[str]] = None,
    ) -> PABatchResult:
        """:func:`solve_many_via` over this solver's own :meth:`solve`,
        batched."""
        return solve_many_via(
            self.solve, setup, items, charge_setup=charge_setup,
            phase_prefix=phase_prefix, phase_prefixes=phase_prefixes,
        )


def solve_many_via(
    solve,
    setup: PASetup,
    items: Sequence[Tuple[Sequence[object], Aggregation]],
    charge_setup: bool = True,
    phase_prefix: str = "pa_batch",
    phase_prefixes: Optional[Sequence[str]] = None,
    batched: bool = True,
) -> PABatchResult:
    """Solve ``k`` aggregations over one setup through one ``solve`` primitive.

    ``solve`` is a single-aggregation solve with :meth:`PASolver.solve`'s
    signature — the solver's own, or a session's (which may route the
    wave pass to the sharded backend); the pack/loop/unpack logic here is
    the same either way.

    ``items`` is a sequence of ``(values, agg)`` pairs.  With
    ``batched=True`` (default) all ``k`` aggregates run in a *single*
    wave pass: node values are packed into k-tuples, merged
    componentwise, and unpacked per aggregation — one broadcast, one
    reversal, one replay, so rounds and messages are those of one
    solve instead of k.  This models messages of ``k`` O(log n)-bit
    words, which stays inside the CONGEST license for constant k (see
    docs/architecture.md, "Runtime sessions", for when that is
    ledger-legitimate).

    With ``batched=False`` the items are solved sequentially — the
    exact calls (same order, same phase names via ``phase_prefixes``)
    a caller would have made by hand, so ledgers are bit-for-bit
    identical to the unbatched code path.  Setup cost is charged at
    most once in either case.
    """
    if phase_prefixes is not None and len(phase_prefixes) != len(items):
        raise ValueError("phase_prefixes must match items in length")
    if not items:
        raise ValueError("solve_many requires at least one aggregation")

    if not batched or len(items) == 1:
        ledger = CostLedger()
        per_agg: List[PAResult] = []
        for k, (values, agg) in enumerate(items):
            prefix = (
                phase_prefixes[k] if phase_prefixes is not None
                else f"{phase_prefix}{k}"
            )
            result = solve(
                setup, values, agg,
                charge_setup=charge_setup and k == 0,
                phase_prefix=prefix,
            )
            ledger.merge(result.ledger)
            per_agg.append(result)
        return PABatchResult(
            per_agg=per_agg, ledger=ledger, setup=setup, batched=False
        )

    combined = solve(
        setup, FactorValues(items),
        product_aggregation([agg for _values, agg in items]),
        charge_setup=charge_setup, phase_prefix=phase_prefix,
    )
    nones = (None,) * len(items)
    at_node = list(zip(*(
        nones if value is None else value for value in combined.value_at_node
    )))
    per_agg = []
    for idx in range(len(items)):
        aggregates = {
            pid: (value[idx] if value is not None else None)
            for pid, value in combined.aggregates.items()
        }
        value_at_node = list(at_node[idx]) if at_node else []
        per_agg.append(
            PAResult(
                aggregates=aggregates,
                value_at_node=value_at_node,
                ledger=combined.ledger,
                setup=setup,
            )
        )
    return PABatchResult(
        per_agg=per_agg, ledger=combined.ledger, setup=setup,
        batched=True,
    )


def solve_pa(
    net: Network,
    partition: Partition,
    values: Sequence[object],
    agg: Aggregation,
    mode: str = RANDOMIZED,
    seed: int = 0,
    leaders: Optional[Sequence[int]] = None,
    solver: Optional[PASolver] = None,
) -> PAResult:
    """One-call Part-Wise Aggregation (builds the whole pipeline).

    This is the public entry point matching Theorem 1.2: given a connected
    network, a connected partition, per-node values and an
    associative-commutative ``agg``, every node of every part learns
    ``f(P_i)``; the result's ledger meters every round and message of tree
    construction, sub-part division, shortcut construction, verification
    and the PA waves.  ``solver`` supplies a pre-built :class:`PASolver` —
    the one place engine settings (asynchronous schedule, a shared
    engine, audits) are chosen; the default is ``PASolver(net, mode, seed)``.
    """
    solver = solver or PASolver(net, mode=mode, seed=seed)
    setup = solver.prepare(partition, leaders=leaders)
    result = solver.solve(setup, values, agg)
    result.ledger.merge(solver.tree_ledger, prefix="tree:")
    return result
