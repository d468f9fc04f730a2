"""The Algorithm 1 waves: coverage, aggregation, reversal accounting."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.congest import AsyncEngine, CostLedger, Engine, RandomDelaySchedule
from repro.core import (
    MIN,
    SUM,
    PASolver,
    annotate_blocks,
    bfs_tree,
    run_pa_waves,
)
from repro.core.array_wave import WaveArrayKernel
from repro.core.queued import QueuedProgram
from repro.core.wave import (
    RouteMemo,
    WaveIndex,
    plan_pa_waves,
    run_planned_waves,
)
from repro.graphs import (
    Partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
)
from oracles import (
    division_from_groups,
    empty_shortcut,
    star_shortcut_for_parts,
)
import twins
from twins import (
    WaveProgram, down_parts, priority_depth, twin_phases, wave_boundary,
)


def manual_setup(net, partition, groups, shortcut_builder):
    engine = Engine(net)
    ledger = CostLedger()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    tree = bfs_tree(engine, net, 0, CostLedger()).tree
    division = division_from_groups(net, partition, leaders, groups)
    shortcut = shortcut_builder(tree, partition)
    ann = annotate_blocks(engine, shortcut, CostLedger())
    return engine, ledger, division, shortcut, ann


def test_wave_covers_parts_with_empty_shortcut():
    """Coverage never depends on shortcut quality (only rounds do)."""
    net = path_graph(12)
    partition = Partition([0] * 6 + [1] * 6)
    groups = [range(0, 3), range(3, 6), range(6, 9), range(9, 12)]
    engine, ledger, division, shortcut, ann = manual_setup(
        net, partition, groups, empty_shortcut
    )
    outcome = run_pa_waves(
        engine, net, partition, division, shortcut, ann,
        [net.uid[v] for v in range(net.n)], MIN, ledger,
    )
    assert outcome.aggregates[0] == min(net.uid[v] for v in range(6))
    assert outcome.aggregates[1] == min(net.uid[v] for v in range(6, 12))
    for v in range(net.n):
        assert outcome.value_at_node[v] == outcome.aggregates[partition.part_of[v]]


def test_wave_uses_blocks_when_present():
    net = grid_2d(4, 8)
    partition = Partition([v % 4 for c in range(8) for v in range(4)])
    # Columns as parts is invalid (not connected); use rows instead.
    partition = Partition([r for r in range(4) for _ in range(8)])
    groups = [
        [r * 8 + c for c in range(4)] for r in range(4)
    ] + [
        [r * 8 + c for c in range(4, 8)] for r in range(4)
    ]
    engine, ledger, division, shortcut, ann = manual_setup(
        net, partition, groups,
        lambda tree, part: star_shortcut_for_parts(tree, part, range(4)),
    )
    outcome = run_pa_waves(
        engine, net, partition, division, shortcut, ann,
        [1] * net.n, SUM, ledger,
    )
    assert outcome.aggregates == {0: 8, 1: 8, 2: 8, 3: 8}
    # Block traffic appears in the record the reversal consumes (a route
    # row per packet sent): some node relays ku/kd.
    tags = set()

    class Tagged(WaveProgram):
        def on_dequeue(self, src, dst, payload):
            tags.add(payload[0])
            super().on_dequeue(src, dst, payload)

    wave = Tagged(
        net, partition, division, shortcut, ann,
        {pid: net.uid[leader] for pid, leader in enumerate(division.part_leader)},
    )
    engine.run(wave, max_ticks=200)
    assert wave.route().edges == len(wave.out_rows[0]) > 0
    assert "ku" in tags or "kd" in tags


def test_reversal_message_accounting_mirrors_wave():
    net = random_connected(40, 0.08, seed=5)
    # Parts small enough that no verification learns the route first.
    partition = random_connected_partition(net, 10, seed=6)
    solver = PASolver(net, seed=7)
    setup = solver.prepare(partition)
    assert setup.route.delays is None
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
    phases = {p.name: p for p in result.ledger.phases()}
    wave = phases["pa_wave"]
    reverse = phases["pa_reverse"]
    replay = phases["pa_replay"]
    # One answer per wave message; replay retraces wave edges.
    assert reverse.messages == wave.messages
    assert replay.messages <= wave.messages
    assert replay.messages > 0


def test_wave_rounds_scale_with_blocks_not_part_diameter():
    """A snake-shaped part has huge diameter; shortcuts keep rounds low."""
    rows, cols = 4, 30
    net = grid_2d(rows, cols)
    partition = Partition([r for r in range(rows) for _ in range(cols)])
    solver = PASolver(net, seed=3)
    setup = solver.prepare(partition)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
    assert result.aggregates == {r: cols for r in range(rows)}


def test_randomized_delays_stay_correct():
    net = grid_2d(3, 20)
    partition = Partition([r for r in range(3) for _ in range(20)])
    for seed in (1, 2, 3):
        solver = PASolver(net, seed=seed)
        setup = solver.prepare(partition)
        result = solver.solve(setup, [net.uid[v] for v in range(net.n)], MIN,
                              charge_setup=False)
        expected = {
            pid: min(net.uid[v] for v in partition.members[pid])
            for pid in range(3)
        }
        assert result.aggregates == expected


# ----------------------------------------------------------------------
# The hand-on-at-once wave against the route-then-broadcast one
# ----------------------------------------------------------------------


class _RouteThenBroadcastWave(QueuedProgram):
    """The oracle: the wave before a gain handed the token on at once.

    A non-rep routes the token up (``ru``) and waits for its
    representative's ``su`` to come back down; a block node climbs
    (``ku``) and waits for the root's ``kd`` flood; every send goes to
    every neighbor its rule names, the sender of the token included.
    """

    name = "pa_wave"

    def __init__(self, net, partition, division, shortcut, annotations,
                 leader_tokens, delays=None, capacity=1):
        super().__init__(capacity=capacity)
        self.partition, self.division = partition, division
        self.shortcut, self.ann = shortcut, annotations
        self.leader_tokens = leader_tokens
        self.delays = delays or {}
        self._started = set()
        self.forest = division.forest
        self.part_of = partition.part_of
        self.rep_of = division.rep_of
        self.down = down_parts(shortcut)
        self.boundary = wave_boundary(division)
        n = net.n
        self.has_token = bytearray(n)
        self.sent_su, self.sent_bd = bytearray(n), bytearray(n)
        self.sent_ru, self.injected = bytearray(n), bytearray(n)
        self.kup_done, self.kdown_done = set(), set()
        self.stride = max(1, partition.num_parts)
        self.out_rows, self.in_rows = ([], []), ([], [])

    def on_dequeue(self, src, dst, payload):
        self.out_rows[0].append(src * self.stride + payload[1])
        self.out_rows[1].append(dst)

    def _send(self, ctx, src, dst, tag, pid, token, priority=(0, 0)):
        self.enqueue(ctx, src, dst, priority, (tag, pid, token))

    def _prio(self, v, pid):
        return (priority_depth(self.ann, v, pid), pid)

    def _gain(self, v, pid):
        self.has_token[v] = 1

    def _rep_actions(self, ctx, v, pid, token, via_block):
        if not self.sent_su[v]:
            self.sent_su[v] = 1
            for child in self.forest.children[v]:
                self._send(ctx, v, child, "su", pid, token)
        if not self.sent_bd[v]:
            self.sent_bd[v] = 1
            for nb in self.boundary[v]:
                self._send(ctx, v, nb, "bd", pid, token)
        if not self.injected[v]:
            self.injected[v] = 1
            if not via_block:
                if (pid in self.shortcut.up_parts[v]
                        and (v, pid) not in self.kup_done):
                    self.kup_done.add((v, pid))
                    self._send(ctx, v, self.shortcut.tree.parent[v], "ku",
                               pid, token, self._prio(v, pid))
                else:
                    self._block_down(ctx, v, pid, token)

    def _block_down(self, ctx, v, pid, token):
        if (v, pid) in self.kdown_done:
            return
        self.kdown_done.add((v, pid))
        for child, parts in self.down[v].items():
            if pid in parts:
                self._send(ctx, v, child, "kd", pid, token, self._prio(v, pid))

    def _route_up(self, ctx, v, pid, token):
        if not self.sent_ru[v]:
            self.sent_ru[v] = 1
            self._send(ctx, v, self.forest.parent[v], "ru", pid, token)

    def _member_receive(self, ctx, v, pid, token, via):
        if self.has_token[v]:
            return
        self._gain(v, pid)
        if self.rep_of[v] == v:
            self._rep_actions(ctx, v, pid, token, via in ("ku", "kd"))
        else:
            self._route_up(ctx, v, pid, token)

    def on_start(self, ctx):
        for pid in range(self.partition.num_parts):
            leader = self.division.part_leader[pid]
            delay = self.delays.get(pid, 0)
            if delay > 1:
                ctx.wake_at(leader, delay)
            else:
                ctx.wake(leader)

    def on_activate(self, ctx, node):
        pid = self.part_of[node]
        if node != self.division.part_leader[pid] or pid in self._started:
            return
        if ctx.tick < self.delays.get(pid, 0):
            ctx.wake(node)
            return
        self._started.add(pid)
        token = self.leader_tokens[pid]
        self._gain(node, pid)
        if self.rep_of[node] == node:
            self._rep_actions(ctx, node, pid, token, False)
        else:
            self.sent_ru[node] = 1
            self._send(ctx, node, self.forest.parent[node], "ru", pid, token)

    def handle(self, ctx, node, inbox):
        for sender, (tag, pid, token) in inbox:
            self.in_rows[0].append(node * self.stride + pid)
            self.in_rows[1].append(sender)
            if tag in ("ru", "bd"):
                self._member_receive(ctx, node, pid, token, tag)
            elif tag == "su":
                if not self.has_token[node]:
                    self._gain(node, pid)
                self._rep_actions(ctx, node, pid, token, True)
            elif tag == "ku":
                if (node, pid) in self.kup_done:
                    continue
                self.kup_done.add((node, pid))
                if self.part_of[node] == pid:
                    self._member_receive(ctx, node, pid, token, "ku")
                if pid in self.shortcut.up_parts[node]:
                    self._send(ctx, node, self.shortcut.tree.parent[node],
                               "ku", pid, token, self._prio(node, pid))
                else:
                    self._block_down(ctx, node, pid, token)
            else:
                if self.part_of[node] == pid:
                    self._member_receive(ctx, node, pid, token, "kd")
                self._block_down(ctx, node, pid, token)

    def route(self):
        parts = range(self.partition.num_parts)
        return WaveIndex(
            self.part_of, [self.division.part_leader[p] for p in parts],
            np.isin(parts, list(self._started)),
            np.asarray(self.has_token, dtype=bool),
            *self.out_rows, *self.in_rows,
        )


class _Spy(WaveProgram):
    """The wave, noting every send to a neighbor that had already sent the
    sender the same part's token (in this tick or any before it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.told = {}
        self.echoes = []

    def on_node(self, ctx, node, inbox):
        for sender, (_tag, pid, _token) in inbox:
            self.told.setdefault((node, pid), set()).add(sender)
        super().on_node(ctx, node, inbox)

    def _send(self, ctx, src, dst, tag, pid, token, priority=(0, 0)):
        if dst in self.told.get((src, pid), ()):
            self.echoes.append((src, dst, tag, pid))
        super()._send(ctx, src, dst, tag, pid, token, priority)


SHORTCUTS = ("empty", "star", "corefast")


def _instance(seed, n, parts, shortcut_kind):
    """A random connected graph and partition, its division, and one of
    three shortcuts over its BFS tree with their block annotations."""
    net = random_connected(n, 0.15, seed=seed, uid_seed=seed)
    partition = random_connected_partition(net, parts, seed=seed)
    setup = PASolver(net, seed=seed % 97).prepare(partition)
    shortcut, ann = setup.shortcut, setup.annotations
    if shortcut_kind != "corefast":
        tree = shortcut.tree
        shortcut = (
            empty_shortcut(tree, partition) if shortcut_kind == "empty"
            else star_shortcut_for_parts(tree, partition, range(parts))
        )
        ann = annotate_blocks(Engine(net), shortcut, CostLedger())
    return net, partition, setup.division, shortcut, ann


def _engine(kind, net, seed):
    if kind == "async":
        return AsyncEngine(net, schedule=RandomDelaySchedule(seed=seed))
    return Engine(net, strict_bits=True)


def _routes(forest):
    """``{(node, part): (wave parent, forest children)}``."""
    ends = (forest.out_starts + forest.out_counts).tolist()
    return {
        (v, pid): (
            None if parent < 0 else parent, forest.out_dst[lo:hi].tolist()
        )
        for v, pid, parent, lo, hi in zip(
            forest.node.tolist(), forest.part.tolist(),
            forest.parent.tolist(), forest.out_starts.tolist(), ends,
        )
    }


def _solve(kind, instance, delayed, seed, program=None):
    """One learning solve on engine ``kind``, on the twins but for
    ``"array"``; its outcome, ledger and forest."""
    net, partition, division, shortcut, ann = instance
    engine = _engine(kind, net, seed)
    values = [net.uid[v] % 97 for v in range(net.n)]
    plan = plan_pa_waves(
        net, partition, division, shortcut, values, SUM,
        randomized=delayed, rng=random.Random(seed),
    )
    ledger, memo = CostLedger(), RouteMemo()
    with twin_phases(kind != "array"), pytest.MonkeyPatch.context() as patch:
        if program is not None:
            patch.setattr(twins, "WaveProgram", program)
        outcome = run_planned_waves(
            engine, net, partition, division, shortcut, ann, values, SUM,
            ledger, plan, route=memo,
        )
    forest = memo.forest
    log = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]
    return outcome, log, _routes(forest)


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(10, 36),
    parts=st.integers(1, 5),
    shortcut_kind=st.sampled_from(SHORTCUTS),
    delayed=st.booleans(),
    engine_kind=st.sampled_from(["scalar", "async"]),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hand_on_at_once_against_route_then_broadcast(
    seed, n, parts, shortcut_kind, delayed, engine_kind
):
    """Same answers as the route-then-broadcast wave on fewer messages,
    on a subset of its keys that still holds every member, a forest of
    one in-edge per non-leader key, and both twins bit for bit."""
    instance = _instance(seed, n, parts, shortcut_kind)
    net, partition = instance[0], instance[1]
    oracle, oracle_log, oracle_routes = _solve(
        engine_kind, instance, delayed, seed,
        program=_RouteThenBroadcastWave,
    )
    outcome, log, routes = _solve(engine_kind, instance, delayed, seed)
    assert outcome.aggregates == oracle.aggregates
    assert outcome.value_at_node == oracle.value_at_node
    assert outcome.wire_edges <= oracle.wire_edges
    assert log[0][2] == outcome.wire_edges <= oracle_log[0][2]
    members = {(v, pid) for v, pid in enumerate(partition.part_of)}
    assert members <= set(routes) <= set(oracle_routes)
    assert outcome.forest_edges == len(routes) - partition.num_parts
    assert outcome.forest_edges == sum(len(out) for _p, out in routes.values())
    if engine_kind == "scalar":
        twin = _solve("array", instance, delayed, seed)
        assert twin[1:] == (log, routes)
        assert twin[0].aggregates == outcome.aggregates
        assert twin[0].value_at_node == outcome.value_at_node


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(10, 36),
    parts=st.integers(1, 5),
    shortcut_kind=st.sampled_from(SHORTCUTS),
    delayed=st.booleans(),
)
# Members that gained the token ticks before their block sends: a ku to a
# tree parent, a kd to a tree child, that had sent the token earlier.
@example(seed=1, n=24, parts=5, shortcut_kind="corefast", delayed=False)
@example(seed=2, n=24, parts=2, shortcut_kind="star", delayed=False)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_no_wave_packet_goes_back_to_a_neighbor_that_sent_the_token(
    seed, n, parts, shortcut_kind, delayed
):
    instance = _instance(seed, n, parts, shortcut_kind)
    spies = []

    def spy(*args, **kwargs):
        spies.append(_Spy(*args, **kwargs))
        return spies[-1]

    _solve("scalar", instance, delayed, seed, program=spy)
    (wave,) = spies
    assert wave.echoes == []


#: The :class:`WaveIndex` columns both twins write.
_COLUMNS = (
    "keys", "parent", "out_starts", "out_counts", "out_dst",
    "fan_kid", "fan_src", "reached",
)


def _columns(index):
    return {name: getattr(index, name).tolist() for name in _COLUMNS}


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(10, 36),
    parts=st.integers(1, 5),
    shortcut_kind=st.sampled_from(("empty", "star")),
    mode=st.sampled_from(["randomized", "deterministic"]),
    delayed=st.booleans(),
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_twins_write_the_same_wave_index(
    seed, n, parts, shortcut_kind, mode, delayed
):
    """The scalar broadcast's rows and the array kernel's arenas build one
    route: equal columns on the wire and on the forest, at equal cost."""
    net = random_connected(n, 0.15, seed=seed, uid_seed=seed)
    partition = random_connected_partition(net, parts, seed=seed)
    setup = PASolver(net, mode=mode, seed=seed % 97).prepare(partition)
    tree = setup.shortcut.tree
    shortcut = (
        empty_shortcut(tree, partition) if shortcut_kind == "empty"
        else star_shortcut_for_parts(tree, partition, range(parts))
    )
    ann = annotate_blocks(Engine(net), shortcut, CostLedger())
    values = [net.uid[v] % 97 for v in range(net.n)]
    routes, stats = [], []
    for program in (WaveProgram, WaveArrayKernel):
        engine = Engine(net, strict_bits=True)
        plan = plan_pa_waves(
            net, partition, setup.division, shortcut, values, SUM,
            randomized=delayed, rng=random.Random(seed),
        )
        wave = program(
            net, partition, setup.division, shortcut, ann,
            plan.leader_tokens, delays=plan.delays, capacity=plan.capacity,
        )
        ran = engine.run(
            wave, max_ticks=plan.max_ticks, capacity=plan.capacity,
            rounds_per_tick=plan.rounds_per_tick,
        )
        stats.append((ran.rounds, ran.messages, ran.ticks, ran.bits))
        routes.append(wave.route())
    scalar, array = routes
    assert _columns(scalar) == _columns(array)
    assert _columns(scalar.forest()) == _columns(array.forest())
    assert stats[0] == stats[1]
