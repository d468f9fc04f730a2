"""Engine semantics: delivery, capacity, bandwidth, wakeups, determinism."""

from __future__ import annotations

import pytest

from repro.congest import (
    BandwidthExceededError,
    ChannelCapacityError,
    Context,
    Engine,
    FunctionProgram,
    Network,
    NotAnEdgeError,
    Program,
    RoundLimitExceededError,
)
from repro.graphs import path_graph, star_graph


class EchoOnce(Program):
    """Node 0 pings node 1; node 1 echoes back once."""

    name = "echo"

    def __init__(self) -> None:
        self.log = []

    def on_start(self, ctx: Context) -> None:
        ctx.send(0, 1, ("ping",))

    def on_node(self, ctx: Context, node: int, inbox) -> None:
        for sender, payload in inbox:
            self.log.append((ctx.tick, node, sender, payload[0]))
            if payload[0] == "ping":
                ctx.send(node, sender, ("pong",))


def test_messages_delivered_next_tick(path10):
    engine = Engine(path10)
    program = EchoOnce()
    stats = engine.run(program, max_ticks=5)
    assert program.log == [(1, 1, 0, "ping"), (2, 0, 1, "pong")]
    assert stats.rounds == 2
    assert stats.messages == 2


def test_send_to_non_neighbor_rejected(path10):
    engine = Engine(path10)

    def start(ctx):
        ctx.send(0, 5, ("bad",))

    program = FunctionProgram("bad", start, lambda ctx, n, i: None)
    with pytest.raises(NotAnEdgeError):
        engine.run(program, max_ticks=3)


def test_channel_capacity_enforced(path10):
    engine = Engine(path10)

    def start(ctx):
        ctx.send(0, 1, ("a",))
        ctx.send(0, 1, ("b",))

    program = FunctionProgram("flood", start, lambda ctx, n, i: None)
    with pytest.raises(ChannelCapacityError):
        engine.run(program, max_ticks=3)


def test_higher_capacity_allows_parallel_messages(path10):
    engine = Engine(path10)
    seen = []

    def start(ctx):
        ctx.send(0, 1, ("a",))
        ctx.send(0, 1, ("b",))

    def on_node(ctx, node, inbox):
        seen.extend(payload[0] for _s, payload in inbox)

    program = FunctionProgram("flood", start, on_node)
    stats = engine.run(program, max_ticks=3, capacity=2, rounds_per_tick=2)
    assert sorted(seen) == ["a", "b"]
    assert stats.rounds == 2  # one tick at two rounds per tick
    assert stats.messages == 2


def test_bandwidth_cap_enforced(path10):
    engine = Engine(path10)
    huge = tuple(range(200))

    def start(ctx):
        ctx.send(0, 1, huge)

    program = FunctionProgram("huge", start, lambda ctx, n, i: None)
    with pytest.raises(BandwidthExceededError):
        engine.run(program, max_ticks=3)


def test_round_limit_raises(path10):
    engine = Engine(path10)

    class Forever(Program):
        name = "forever"

        def on_start(self, ctx):
            ctx.wake(0)

        def on_node(self, ctx, node, inbox):
            ctx.wake(node)

    with pytest.raises(RoundLimitExceededError):
        engine.run(Forever(), max_ticks=10)


def test_wakeups_activate_without_messages(path10):
    engine = Engine(path10)
    ticks = []

    class Waker(Program):
        name = "waker"

        def on_start(self, ctx):
            ctx.wake(3)

        def on_node(self, ctx, node, inbox):
            ticks.append((ctx.tick, node, len(inbox)))
            if ctx.tick < 3:
                ctx.wake(node)

    stats = engine.run(Waker(), max_ticks=6)
    assert ticks == [(1, 3, 0), (2, 3, 0), (3, 3, 0)]
    assert stats.messages == 0


def test_inbox_sorted_by_sender():
    net = star_graph(5)
    engine = Engine(net)
    received = []

    def start(ctx):
        for leaf in (4, 2, 3, 1):
            ctx.send(leaf, 0, ("hi", leaf))

    def on_node(ctx, node, inbox):
        received.extend(sender for sender, _p in inbox)

    program = FunctionProgram("sorted", start, on_node)
    engine.run(program, max_ticks=3)
    assert received == [1, 2, 3, 4]


def test_run_is_deterministic(small_random):
    def run_once():
        engine = Engine(small_random)
        order = []

        class Flood(Program):
            name = "flood"

            def __init__(self):
                self.seen = set()

            def on_start(self, ctx):
                self.seen.add(0)
                for nb in small_random.neighbors[0]:
                    ctx.send(0, nb, ("f",))

            def on_node(self, ctx, node, inbox):
                if node not in self.seen:
                    self.seen.add(node)
                    order.append(node)
                    for nb in small_random.neighbors[node]:
                        ctx.send(node, nb, ("f",))

        program = Flood()
        stats = engine.run(program, max_ticks=50)
        return order, stats.messages

    first = run_once()
    second = run_once()
    assert first == second


def test_phase_stats_round_scaling(path10):
    engine = Engine(path10)

    class Chain(Program):
        name = "chain"

        def on_start(self, ctx):
            ctx.send(0, 1, (0,))

        def on_node(self, ctx, node, inbox):
            for _s, payload in inbox:
                if node < 9:
                    ctx.send(node, node + 1, payload)

    stats = engine.run(Chain(), max_ticks=20, capacity=3, rounds_per_tick=3)
    assert stats.ticks == 9
    assert stats.rounds == 27
    assert stats.messages == 9


def test_flags_rebuild_the_same_engine_on_another_network(path10):
    """``flags`` is the one spelling of the construction flags: rebinds
    and shard workers build engines from it, so it must cover every
    constructor flag, values intact."""
    import inspect

    flags = {
        "strict_bits": False, "strict_edges": False, "use_arrays": True,
    }
    engine = Engine(path10, **flags)
    assert engine.flags == flags
    assert set(flags) == set(inspect.signature(Engine).parameters) - {"network"}
    assert Engine(star_graph(5), **engine.flags).flags == flags
