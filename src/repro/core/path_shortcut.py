"""Algorithm 7: deterministic shortcut construction on heavy paths.

Each active heavy path runs ``ceil(log2 L)`` doubling iterations.  In
iteration ``i`` the nodes at positions ``2^i (mod 2^{i+1})`` stream their
accumulated claim sets ``S(v)`` up the path over ``2^i`` hops (one part id
per edge per round — a convoy); a node whose set has reached ``2c`` part
ids instead *breaks* the edge above it and clears its set.  Convoys of the
same iteration are edge-disjoint (senders sit ``2^{i+1}`` apart), so no
queuing is needed; iteration boundaries are globally scheduled ticks, and
iteration ``i`` lasts ``2c + 2^i + 1`` ticks — O(c log L + L) rounds in
total (Lemma 6.6).

Every part id that crosses an edge *claims* it: the edge joins that part's
``H_i``.  A convoy that runs into a broken edge is absorbed there (the
paper skips such transmissions entirely; absorbing keeps strictly fewer
claims in flight and preserves the union-of-upward-prefixes invariant —
see docs/architecture.md, "Deviations from the paper").  Convoys that reach the path top are absorbed into the
top's set ``Sf(top)``, which Algorithm 8 later ships across the top's
light parent edge (:class:`LightCrossProgram`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .heavy_path import HeavyPathDecomposition
from .trees import RootedForest


def doubling_schedule(max_length: int, threshold: int) -> List[Tuple[int, int]]:
    """(start_tick, span) per iteration i; iteration i covers 2^i hops."""
    schedule = []
    tick = 1
    i = 0
    while (1 << i) < max(2, max_length):
        span = 2 * threshold + (1 << i) + 1
        schedule.append((tick, span))
        tick += span
        i += 1
    return schedule


class PathDoublingProgram(Program):
    """One Algorithm 7 wave over all active paths simultaneously."""

    name = "alg7_path_doubling"

    def __init__(
        self,
        tree: RootedForest,
        hpd: HeavyPathDecomposition,
        active_tops: Sequence[int],
        store: Dict[int, Set[int]],
        threshold: int,
    ) -> None:
        """``store``: node -> accumulated claim set (mutated in place);
        ``threshold``: the ``2c`` break limit is ``2 * threshold``."""
        self.tree = tree
        self.net = tree.net
        self.hpd = hpd
        self.store = store
        self.break_at = 2 * max(1, threshold)

        active_ids = {self.net.uid[t] for t in active_tops}
        self._on_active_path = [
            hpd.path_id[v] in active_ids for v in range(self.net.n)
        ]
        self.max_length = max(
            (hpd.path_length[t] for t in active_tops), default=1
        )
        self.schedule = doubling_schedule(self.max_length, max(1, threshold))
        self.end_tick = (
            self.schedule[-1][0] + self.schedule[-1][1] + 1
            if self.schedule
            else 2
        )
        #: claims recorded this wave: node -> parts that crossed its parent edge
        self.claimed_up: Dict[int, Set[int]] = {}
        self.broken: Set[int] = set()
        #: per-node outgoing convoy (list of (pid, hops_left)), emitted 1/tick
        self._emit: Dict[int, List[Tuple[int, int]]] = {}
        self._iter_started: Set[int] = set()

    # ------------------------------------------------------------------
    def _path_parent(self, v: int) -> int:
        return -1 if self.hpd.path_top[v] else self.tree.parent[v]

    def _start_iteration(self, ctx: Context, i: int) -> None:
        period = 1 << (i + 1)
        offset = 1 << i
        for v in range(self.net.n):
            if not self._on_active_path[v] or self.hpd.path_top[v]:
                continue
            if self.hpd.position[v] % period != offset:
                continue
            pending = self.store.get(v)
            if not pending:
                continue
            if len(pending) >= self.break_at:
                self.broken.add(v)
                pending.clear()
                continue
            convoy = [(pid, offset) for pid in sorted(pending)]
            pending.clear()
            self._emit.setdefault(v, []).extend(convoy)
            ctx.wake(v)

    def _emit_one(self, ctx: Context, v: int) -> None:
        queue = self._emit.get(v)
        if not queue:
            return
        pid, hops = queue.pop(0)
        parent = self._path_parent(v)
        if parent < 0 or v in self.broken:
            # Absorb: the top of the path (or a broken node) keeps the id.
            self.store.setdefault(v, set()).add(pid)
        else:
            self.claimed_up.setdefault(v, set()).add(pid)
            ctx.send(v, parent, ("s", pid, hops - 1))
        if queue:
            ctx.wake(v)

    def on_start(self, ctx: Context) -> None:
        # A coordinator node drives the global schedule by waking itself;
        # every node knows the schedule (it is a function of c and L only),
        # so this costs no messages.
        for v in range(self.net.n):
            if self._on_active_path[v]:
                ctx.wake(v)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        # Global schedule: start iteration i exactly at its tick.
        for i, (start, _span) in enumerate(self.schedule):
            if ctx.tick == start and i not in self._iter_started:
                self._iter_started.add(i)
                self._start_iteration(ctx, i)
        for _sender, payload in inbox:
            _tag, pid, hops = payload
            if hops == 0 or self.hpd.path_top[node] or node in self.broken:
                self.store.setdefault(node, set()).add(pid)
            else:
                self._emit.setdefault(node, []).append((pid, hops))
                ctx.wake(node)
        self._emit_one(ctx, node)
        # Keep the schedule alive until the last iteration has started.
        if ctx.tick < self.end_tick and node == self._clock_node(ctx):
            ctx.wake(node)

    def _clock_node(self, ctx: Context) -> int:
        # The minimum active node acts as the (message-free) clock.
        return self._clock

    def prepare_clock(self) -> None:
        active = [v for v in range(self.net.n) if self._on_active_path[v]]
        self._clock = min(active) if active else 0


class LightCrossProgram(Program):
    """Ship each finished path top's claim set across its light parent edge.

    One part id per round per edge (a pipelined stream); each crossing
    claims the light edge for that part and deposits the id in the
    receiving node's store for its own path's later wave.
    """

    name = "alg8_light_cross"

    def __init__(
        self,
        tree: RootedForest,
        tops: Sequence[int],
        store: Dict[int, Set[int]],
    ) -> None:
        self.tree = tree
        self.tops = tops
        self.store = store
        self.claimed_up: Dict[int, Set[int]] = {}
        self._queues: Dict[int, List[int]] = {}

    def on_start(self, ctx: Context) -> None:
        for top in self.tops:
            if self.tree.parent[top] < 0:
                continue  # the root path's claims end at the root
            pending = sorted(self.store.get(top, ()))
            if pending:
                self.store[top].clear()
                self._queues[top] = list(pending)
                ctx.wake(top)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid = payload
            self.store.setdefault(node, set()).add(pid)
        queue = self._queues.get(node)
        if queue:
            pid = queue.pop(0)
            parent = self.tree.parent[node]
            self.claimed_up.setdefault(node, set()).add(pid)
            ctx.send(node, parent, ("x", pid))
            if queue:
                ctx.wake(node)


def run_path_doubling_wave(
    engine: Engine,
    tree: RootedForest,
    hpd: HeavyPathDecomposition,
    active_tops: Sequence[int],
    store: Dict[int, Set[int]],
    threshold: int,
    ledger: CostLedger,
    wave_name: str,
) -> Dict[int, Set[int]]:
    """Run Algorithm 7 on the given paths, then cross their light edges.

    Returns the union of claims recorded (node -> part ids that crossed the
    node's parent edge).  ``store`` is mutated: consumed at senders,
    deposited at absorbers and across light edges.
    """
    program = PathDoublingProgram(tree, hpd, active_tops, store, threshold)
    program.prepare_clock()
    program.name = f"{wave_name}_doubling"
    stats = engine.run(program, max_ticks=program.end_tick + 4)
    ledger.charge(stats)

    longest_stream = max(
        (len(store.get(top, ())) for top in active_tops), default=1
    )
    cross = LightCrossProgram(tree, active_tops, store)
    cross.name = f"{wave_name}_cross"
    stats = engine.run(cross, max_ticks=8 + longest_stream)
    ledger.charge(stats)

    claims: Dict[int, Set[int]] = {}
    for source in (program.claimed_up, cross.claimed_up):
        for v, pids in source.items():
            claims.setdefault(v, set()).update(pids)
    return claims
