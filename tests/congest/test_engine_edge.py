"""Engine edge cases: capacity boundaries, strict-bits parity, timers."""

from __future__ import annotations

import pytest

from repro.congest import (
    BandwidthExceededError,
    ChannelCapacityError,
    Engine,
    FunctionProgram,
    Network,
    Program,
    RoundLimitExceededError,
    payload_bits,
    payload_bits_cached,
)
from repro.graphs import path_graph
from repro.obs import Tracer, use_tracer
from oracles import star_graph


# ----------------------------------------------------------------------
# Capacity: exactly at the boundary vs one over
# ----------------------------------------------------------------------
def _flood_program(count: int) -> FunctionProgram:
    def start(ctx):
        for i in range(count):
            ctx.send(0, 1, ("m", i))

    return FunctionProgram("flood", start, lambda ctx, n, i: None)


@pytest.mark.parametrize("capacity", [1, 2, 3, 5])
def test_capacity_exact_boundary_passes(path10, capacity):
    engine = Engine(path10)
    stats = engine.run(_flood_program(capacity), max_ticks=3, capacity=capacity)
    assert stats.messages == capacity


@pytest.mark.parametrize("capacity", [1, 2, 3, 5])
def test_capacity_one_over_boundary_raises(path10, capacity):
    engine = Engine(path10)
    with pytest.raises(ChannelCapacityError):
        engine.run(_flood_program(capacity + 1), max_ticks=3, capacity=capacity)


def test_send_from_out_of_range_node_raises(path10):
    from repro.congest import NotAnEdgeError

    for src in (-1, 10, 99):
        def start(ctx, src=src):
            ctx.send(src, 1, ("x",))

        program = FunctionProgram("ghost", start, lambda c, n, i: None)
        with pytest.raises(NotAnEdgeError):
            Engine(path10).run(program, max_ticks=3)


def test_capacity_is_per_directed_edge(path10):
    # capacity messages in each direction of one edge is legal.
    def start(ctx):
        ctx.send(0, 1, ("a",))
        ctx.send(1, 0, ("b",))

    program = FunctionProgram("duplex", start, lambda ctx, n, i: None)
    stats = Engine(path10).run(program, max_ticks=3, capacity=1)
    assert stats.messages == 2


def test_capacity_overflow_detected_after_legal_edges():
    # The overflowing edge is found even when other nodes' mail is fine.
    net = star_graph(5)

    def start(ctx):
        for leaf in (1, 2, 3):
            ctx.send(leaf, 0, ("ok", leaf))
        ctx.send(4, 0, ("x", 1))
        ctx.send(4, 0, ("x", 2))  # second message on directed edge (4, 0)

    program = FunctionProgram("over", start, lambda ctx, n, i: None)
    with pytest.raises(ChannelCapacityError):
        Engine(net).run(program, max_ticks=3, capacity=1)


# ----------------------------------------------------------------------
# strict_bits: off vs on parity
# ----------------------------------------------------------------------
class PingPong(Program):
    name = "pingpong"

    def __init__(self, hops: int) -> None:
        self.hops = hops

    def on_start(self, ctx):
        ctx.send(0, 1, ("tok", 0))

    def on_node(self, ctx, node, inbox):
        for sender, payload in inbox:
            count = payload[1]
            if count < self.hops:
                ctx.send(node, sender, ("tok", count + 1))


def test_strict_bits_off_charges_identical_ledger(path10):
    strict = Engine(path10, strict_bits=True).run(PingPong(7), max_ticks=20)
    loose = Engine(path10, strict_bits=False, strict_edges=False).run(
        PingPong(7), max_ticks=20
    )
    assert (strict.rounds, strict.messages, strict.ticks) == (
        loose.rounds, loose.messages, loose.ticks,
    )


def test_strict_bits_only_strict_mode_raises(path10):
    huge = tuple(range(200))

    def start(ctx):
        ctx.send(0, 1, huge)

    received = []
    program = FunctionProgram(
        "huge", start, lambda ctx, n, inbox: received.extend(inbox)
    )
    with pytest.raises(BandwidthExceededError):
        Engine(path10, strict_bits=True).run(program, max_ticks=3)
    stats = Engine(path10, strict_bits=False, strict_edges=False).run(
        program, max_ticks=3
    )
    assert stats.messages == 1 and len(received) == 1


# ----------------------------------------------------------------------
# payload_bits_cached is exact (type-aware), not merely equality-based
# ----------------------------------------------------------------------
def test_payload_bits_cached_matches_exact_for_equal_but_distinct_types():
    # 1 == 1.0 == True, yet their encodings differ; the cache must not
    # conflate them.
    for payload in (1, 1.0, True, "1", (1,), (1.0,), (True, "1"), None):
        assert payload_bits_cached(payload) == payload_bits(payload)
    # Repeated queries (cache hits) stay exact.
    assert payload_bits_cached((1,)) == payload_bits((1,))
    assert payload_bits_cached((1.0,)) == payload_bits((1.0,))
    assert payload_bits_cached((1.0,)) != payload_bits_cached((1,))


def test_payload_bits_cached_rejects_unsupported_types():
    with pytest.raises(TypeError):
        payload_bits_cached([1, 2])
    with pytest.raises(TypeError):
        payload_bits_cached({"a": 1})


def test_numpy_scalars_charge_the_wrapped_python_value():
    # The wire format does not care about the sender's register type:
    # np.int64(1), 1 and True all cost 1 bit, at every boundary width.
    import numpy as np

    assert (
        payload_bits(np.int64(1)) == payload_bits(1) == payload_bits(True) == 1
    )
    for value in (0, 1, -1, 2**31, 2**53 - 1, 2**53, 2**60 - 1, -(2**62)):
        assert (
            payload_bits_cached(np.int64(value))
            == payload_bits_cached(value)
            == payload_bits(value)
        )
    assert payload_bits_cached(np.float64(1.5)) == payload_bits(1.5) == 64
    assert payload_bits_cached(np.bool_(True)) == 1
    # np.float64 subclasses float, so it takes the repr-keyed cache path;
    # its numpy-2 repr must key separately from the plain float without
    # changing the answer.
    assert payload_bits_cached(1.0) == payload_bits_cached(np.float64(1.0)) == 64
    # Numpy scalars nested inside (cacheable) tuples charge like the
    # plain-int tuple, again via a type-faithful key.
    assert payload_bits_cached((np.int64(5), "tag")) == payload_bits((5, "tag"))
    with pytest.raises(TypeError):
        payload_bits(np.arange(3))  # whole arrays are never a message


def test_strict_bits_ledger_identical_for_numpy_and_python_payloads(path10):
    import numpy as np

    def send_np(ctx):
        ctx.send(0, 1, ("tok", np.int64(7)))

    def send_py(ctx):
        ctx.send(0, 1, ("tok", 7))

    silent = lambda ctx, n, inbox: None
    a = Engine(path10, strict_bits=True).run(
        FunctionProgram("np", send_np, silent), max_ticks=3
    )
    b = Engine(path10, strict_bits=True).run(
        FunctionProgram("py", send_py, silent), max_ticks=3
    )
    assert (a.rounds, a.messages) == (b.rounds, b.messages)


# ----------------------------------------------------------------------
# Deterministic activation order
# ----------------------------------------------------------------------
def test_activation_order_is_sorted_even_for_unsorted_wakes_and_sends():
    net = star_graph(6)
    order = []

    def start(ctx):
        for leaf in (5, 2, 4):
            ctx.send(leaf, 0, ("hi", leaf))
        ctx.wake(3)
        ctx.wake(1)

    def on_node(ctx, node, inbox):
        order.append(node)

    # Wait: the sends activate node 0 (the hub); wakes activate 1 and 3.
    Engine(net).run(FunctionProgram("order", start, on_node), max_ticks=3)
    assert order == sorted(order)
    assert order == [0, 1, 3]


def test_inbox_sender_order_after_out_of_order_sends():
    net = star_graph(5)
    seen = []

    def start(ctx):
        for leaf in (3, 1, 4, 2):
            ctx.send(leaf, 0, ("hi", leaf))

    def on_node(ctx, node, inbox):
        seen.extend(sender for sender, _payload in inbox)

    Engine(net).run(FunctionProgram("sorted", start, on_node), max_ticks=3)
    assert seen == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Timer wheel: wake_at
# ----------------------------------------------------------------------
def test_wake_at_delivers_at_exact_tick(path10):
    activations = []

    def start(ctx):
        ctx.wake_at(4, 7)

    def on_node(ctx, node, inbox):
        activations.append((ctx.tick, node, len(inbox)))

    stats = Engine(path10).run(FunctionProgram("timer", start, on_node),
                               max_ticks=20)
    assert activations == [(7, 4, 0)]
    # The idle ticks before the timer fires are still charged as rounds.
    assert stats.ticks == 7
    assert stats.rounds == 7


def test_wake_at_multiple_timers_fire_in_tick_order(path10):
    activations = []

    def start(ctx):
        ctx.wake_at(2, 5)
        ctx.wake_at(1, 3)
        ctx.wake_at(3, 5)

    def on_node(ctx, node, inbox):
        activations.append((ctx.tick, node))

    stats = Engine(path10).run(FunctionProgram("timers", start, on_node),
                               max_ticks=10)
    assert activations == [(3, 1), (5, 2), (5, 3)]
    assert stats.ticks == 5


def test_wake_at_interleaves_with_messages(path10):
    log = []

    class Prog(Program):
        name = "mix"

        def on_start(self, ctx):
            ctx.send(0, 1, ("m",))
            ctx.wake_at(5, 4)

        def on_node(self, ctx, node, inbox):
            log.append((ctx.tick, node))

    stats = Engine(path10).run(Prog(), max_ticks=10)
    assert log == [(1, 1), (4, 5)]
    assert stats.ticks == 4


def test_wake_at_rearming_from_a_timer_activation(path10):
    ticks_seen = []

    class Rearm(Program):
        name = "rearm"

        def on_start(self, ctx):
            ctx.wake_at(0, 2)

        def on_node(self, ctx, node, inbox):
            ticks_seen.append(ctx.tick)
            if ctx.tick < 8:
                ctx.wake_at(node, ctx.tick + 3)

    stats = Engine(path10).run(Rearm(), max_ticks=20)
    assert ticks_seen == [2, 5, 8]
    assert stats.ticks == 8


def test_wake_at_requires_future_tick(path10):
    def start(ctx):
        ctx.wake_at(0, 0)

    with pytest.raises(ValueError):
        Engine(path10).run(FunctionProgram("bad", start, lambda c, n, i: None),
                           max_ticks=3)


def test_wake_at_beyond_max_ticks_raises(path10):
    def start(ctx):
        ctx.wake_at(0, 50)

    with pytest.raises(RoundLimitExceededError):
        Engine(path10).run(FunctionProgram("far", start, lambda c, n, i: None),
                           max_ticks=10)


def test_wake_at_exactly_max_ticks_is_allowed(path10):
    # The fast-forward may land exactly on the budget boundary: tick
    # max_ticks is still within the budget.
    fired = []

    def start(ctx):
        ctx.wake_at(2, 10)

    stats = Engine(path10).run(
        FunctionProgram("edge", start, lambda c, n, i: fired.append(c.tick)),
        max_ticks=10,
    )
    assert fired == [10]
    assert stats.ticks == 10


def test_wake_at_one_past_max_ticks_raises(path10):
    def start(ctx):
        ctx.wake_at(2, 11)

    with pytest.raises(RoundLimitExceededError):
        Engine(path10).run(
            FunctionProgram("over", start, lambda c, n, i: None), max_ticks=10
        )


def test_fast_forward_from_rearm_cannot_overshoot_max_ticks(path10):
    # A timer armed mid-run that fast-forwards past the budget must raise,
    # not silently run the overshooting tick.
    ticks_seen = []

    class Rearm(Program):
        name = "rearm_overshoot"

        def on_start(self, ctx):
            ctx.wake_at(0, 5)

        def on_node(self, ctx, node, inbox):
            ticks_seen.append(ctx.tick)
            ctx.wake_at(node, ctx.tick + 95)

    with pytest.raises(RoundLimitExceededError):
        Engine(path10).run(Rearm(), max_ticks=20)
    assert ticks_seen == [5]  # the overshooting activation never ran


# ----------------------------------------------------------------------
# send_batch: generator safety of the invalid-source error path
# ----------------------------------------------------------------------
def test_send_batch_invalid_src_does_not_consume_entries(path10):
    from repro.congest import Context, NotAnEdgeError

    consumed = []

    def entries():
        for dst in (1, 2):
            consumed.append(dst)
            yield (dst, ("x",))

    gen = entries()
    ctx = Context(path10)
    with pytest.raises(NotAnEdgeError) as info:
        ctx.send_batch(99, gen)
    assert consumed == []          # the generator was not touched
    assert info.value.src == 99
    assert info.value.dst is None
    # The untouched generator is still usable by the caller afterwards.
    assert [dst for dst, _payload in gen] == [1, 2]
    assert consumed == [1, 2]


def test_send_batch_invalid_src_with_empty_generator(path10):
    from repro.congest import Context, NotAnEdgeError

    ctx = Context(path10)
    with pytest.raises(NotAnEdgeError):
        ctx.send_batch(-3, iter(()))


def test_send_batch_valid_src_accepts_generators(path10):
    from repro.congest import Context

    ctx = Context(path10)
    ctx.send_batch(1, ((dst, ("m", dst)) for dst in (0, 2)))
    assert ctx._sent == 2


# ----------------------------------------------------------------------
# FastContext: the audit-free send path is ledger-identical
# ----------------------------------------------------------------------
class _EchoRing(Program):
    """Token circles a path: every node forwards to the other neighbor."""

    name = "echo"

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.trace = []

    def on_start(self, ctx):
        ctx.send(0, 1, ("t", 0))

    def on_node(self, ctx, node, inbox):
        self.trace.append((ctx.tick, node))
        for sender, (tag, count) in inbox:
            if count < self.hops:
                nxt = node + 1 if sender < node else node - 1
                if 0 <= nxt < ctx.network.n:
                    ctx.send(node, nxt, (tag, count + 1))


def test_fast_context_ledger_parity(path10):
    strict = Engine(path10).run(_EchoRing(7), max_ticks=20)
    fast_prog = _EchoRing(7)
    fast = Engine(path10, strict_bits=False, strict_edges=False).run(
        fast_prog, max_ticks=20
    )
    assert (strict.rounds, strict.messages, strict.ticks) == (
        fast.rounds, fast.messages, fast.ticks,
    )


def test_fast_context_selected_only_when_both_audits_off(path10):
    from repro.congest import FastContext
    from repro.congest.engine import Context as StrictContext

    seen = {}

    def start(ctx):
        seen["cls"] = type(ctx)

    prog = FunctionProgram("probe", start, lambda c, n, i: None)
    Engine(path10, strict_bits=False, strict_edges=False).run(prog, max_ticks=2)
    assert seen["cls"] is FastContext
    Engine(path10).run(prog, max_ticks=2)
    assert seen["cls"] is StrictContext
    # Two audit modes, not four: a context audits both or neither, so
    # either half-way pair is rejected outright.
    for strict_bits in (True, False):
        with pytest.raises(ValueError):
            Engine(path10, strict_bits=strict_bits, strict_edges=not strict_bits)


def test_engine_arena_reuse_across_phases_is_clean(path10):
    engine = Engine(path10)
    a = engine.run(PingPong(5), max_ticks=20)
    b = engine.run(PingPong(5), max_ticks=20)
    assert (a.rounds, a.messages) == (b.rounds, b.messages)
    # An aborted phase must not poison the next one.
    with pytest.raises(RoundLimitExceededError):
        engine.run(PingPong(50), max_ticks=3)
    c = engine.run(PingPong(5), max_ticks=20)
    assert (c.rounds, c.messages) == (a.rounds, a.messages)


def test_pa_pipeline_parity_between_strict_and_fast_engines():
    from repro.core import SUM, PASolver
    from repro.graphs import random_connected_partition, random_regular_ish

    net = random_regular_ish(60, 4, seed=11)
    part = random_connected_partition(net, 6, seed=12)

    def pipeline(**engine_flags):
        solver = PASolver(net, seed=13, **engine_flags)
        setup = solver.prepare(part)
        result = solver.solve(setup, [1] * net.n, SUM)
        return result.rounds, result.messages, dict(result.aggregates)

    strict = pipeline()
    loose = pipeline(strict_bits=False, strict_edges=False)
    assert strict == loose


# ----------------------------------------------------------------------
# How a phase ran, on its trace
# ----------------------------------------------------------------------
def _traced(engine, program, max_ticks):
    tracer = Tracer()
    with use_tracer(tracer):
        stats = engine.run(program, max_ticks=max_ticks)
    counters = [e["args"] for e in tracer.events if e["ph"] == "C"]
    jumps = [e["args"] for e in tracer.events if e["cat"] == "engine.ff"]
    return stats, counters, jumps


def test_trace_collects_engine_quantities(path10):
    stats, counters, jumps = _traced(Engine(path10), PingPong(3), 10)
    assert [c["tick"] for c in counters] == [1, 2, 3, 4]
    assert stats.ticks == 4
    assert [c["messages"] for c in counters] == [1, 1, 1, 1]
    assert [c["activations"] for c in counters] == [1, 1, 1, 1]
    assert sum(c["bits"] for c in counters) == stats.bits > 0
    assert jumps == []


def test_trace_counts_idle_ticks_under_timer_wheel(path10):
    def start(ctx):
        ctx.wake_at(0, 9)

    stats, counters, jumps = _traced(
        Engine(path10),
        FunctionProgram("idle", start, lambda c, n, i: None), 20,
    )
    assert stats.rounds == 9
    assert jumps == [
        {"phase": "idle", "from_tick": 0, "to_tick": 9, "skipped": 8}
    ]
    assert [c["tick"] for c in counters] == [9]  # only the firing tick ran
