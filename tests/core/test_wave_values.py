"""The wave schedule does not depend on the values.

Whatever a solve aggregates — ints, tuples, floats, a ``solve_many``
product with a custom merge — the array wave kernels run it, and the
sync-scalar engine, the sync-array engine and the async engine at delay
0 agree on every phase's ``(name, rounds, messages, ticks, bits)``, on
the aggregates (dict order included) and on every node's value.  The
array run never leaves the kernels (no ``*_wave`` fallback); it notes a
``*_reverse`` fallback exactly when the values do not fold as one int64
column, in which case the same kernel folds them with the aggregation's
own merge.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PASolver
from repro.congest import SynchronousSchedule
from repro.congest.arrays import KernelDecline
from repro.congest.errors import BandwidthExceededError, ChannelCapacityError
from repro.core.aggregation import MAX, MIN, MIN_TUPLE, SUM, SUM_TUPLE, Aggregation
from repro.core.array_kernels import fold_op
from repro.core.array_wave import ReverseArrayKernel
from repro.core.pa import DETERMINISTIC, RANDOMIZED
from repro.graphs import (
    grid_2d,
    random_connected,
    random_connected_partition,
)
from repro.obs import Tracer, use_tracer
from repro.service.queries import top_k_aggregation

from oracles import ENGINE_OF, TwinEngine

#: (label, net -> PASolver kwargs) per engine: the scalar twins, the
#: kernels, the kernels under the delay-0 synchronizer.
ENGINES = [
    ("scalar", lambda net: {"engine": TwinEngine(net)}),
    ("array", lambda net: {}),
    ("async", lambda net: {"schedule": SynchronousSchedule()}),
]

#: The value shapes a case draws from; see ``_items``.
KINDS = ("ints", "tuples", "product", "big", "floats")


def _items(kind, agg_pick, n, rng):
    """The ``(values, aggregation)`` pairs of one drawn solve."""
    ints = [
        None if rng.random() < 0.2 else rng.randint(-50, 500) for _ in range(n)
    ]
    if kind == "ints":
        return [(ints, (SUM, MIN, MAX)[agg_pick % 3])]
    if kind == "tuples":
        k = 2 + agg_pick % 2
        tuples = [
            None if rng.random() < 0.2
            else tuple(rng.randint(0, 99) for _ in range(k))
            for _ in range(n)
        ]
        return [(tuples, (MIN_TUPLE, SUM_TUPLE)[agg_pick % 2])]
    if kind == "product":
        wrapped = [None if v is None else (v,) for v in ints]
        return [(ints, SUM), (wrapped, top_k_aggregation(2)), (ints, MIN)]
    if kind == "big":
        # Two entries at 2**62: outside what an int64 column folds
        # exactly, and their sum still inside the 80-bit message budget.
        big = [rng.randint(0, 500) for _ in range(n)]
        big[rng.randrange(n)] = (1 << 62) + rng.randint(0, 1 << 20)
        big[rng.randrange(n)] = (1 << 62) + rng.randint(0, 1 << 20)
        return [(big, (SUM, MIN, MAX)[agg_pick % 3])]
    floats = [rng.random() * 100 for _ in range(n)]
    return [(floats, (SUM, MIN, MAX)[agg_pick % 3])]


def _folds_as_a_column(values, agg) -> bool:
    try:
        _op, columns = fold_op(agg, values)
    except KernelDecline:
        return False
    return columns.bare and not columns.is_bool[0]


def _run(net, partition, items, mode, seed, kwargs):
    solver = PASolver(net, mode=mode, seed=seed, strict_bits=True, **kwargs(net))
    setup = solver.prepare(partition)
    tracer = Tracer()
    with use_tracer(tracer):
        batch = solver.solve_many(setup, items, charge_setup=False)
    log = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in batch.ledger.phases()
    ]
    answers = [
        (list(res.aggregates.items()), list(res.value_at_node))
        for res in batch.per_agg
    ]
    fallbacks = [
        e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
    ]
    return log, answers, fallbacks


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(17, 30),  # an 80-bit message budget
    parts=st.integers(1, 5),
    mode=st.sampled_from([RANDOMIZED, DETERMINISTIC]),
    kind=st.sampled_from(KINDS),
    agg_pick=st.integers(0, 5),
)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_values_ride_beside_one_wire_schedule(
    seed, n, parts, mode, kind, agg_pick
):
    net = random_connected(n, 0.12, seed=seed, uid_seed=seed)
    partition = random_connected_partition(net, parts, seed=seed)
    items = _items(kind, agg_pick, net.n, random.Random(seed))

    runs = {
        label: _run(net, partition, items, mode, seed % 97, kwargs)
        for label, kwargs in ENGINES
    }
    log, answers, _ = runs["scalar"]
    for label in ("array", "async"):
        assert runs[label][0] == log, label
        assert runs[label][1] == answers, label
    # the oracle, part by part (a float sum depends on the fold order in
    # its last bits: the engines agree on it above, the oracle need not)
    exact = (lambda want: want) if kind != "floats" else pytest.approx
    for (values, agg), (aggregates, value_at_node) in zip(items, answers):
        want = {
            pid: agg.fold(values[v] for v in members)
            for pid, members in enumerate(partition.members)
        }
        assert dict(aggregates) == exact(want)
        assert value_at_node == exact([want[pid] for pid in partition.part_of])

    # the async engine runs the array kernels: it declines where they do
    assert runs["scalar"][2] == []
    assert runs["async"][2] == runs["array"][2]
    fallbacks = runs["array"][2]
    assert not [f for f in fallbacks if f["phase"].endswith("_wave")]
    declined = [f["phase"] for f in fallbacks if f["phase"].endswith("_reverse")]
    if len(items) > 1:  # one packed product wave
        assert declined == ["pa_batch_reverse"]
    else:
        column = _folds_as_a_column(*items[0])
        assert declined == ([] if column else ["pa_batch0_reverse"])
        assert column == (kind == "ints")


def test_a_fired_key_is_final():
    """The invariant the value-free reversal rests on: a key fires once,
    after the last answer it expects, and no answer reaches it later —
    so the accumulator a receiver reads through a sender's key id is the
    one the sender reported."""
    net = grid_2d(6, 6, uid_seed=3)
    partition = random_connected_partition(net, 4, seed=2)
    values = [(v * 7) % 31 for v in range(net.n)]
    fired = []
    touched_after_firing = []

    class Watched(ReverseArrayKernel):
        def _fire(self, kids, strict_bits):
            assert not set(kids.tolist()) & set(fired)
            assert (self.expected[kids] == 0).all()
            fired.extend(kids.tolist())
            super()._fire(kids, strict_bits)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            absorb = self.store.absorb

            def watched(into, sender):
                touched_after_firing.extend(set(into.tolist()) & set(fired))
                assert set(sender.tolist()) <= set(fired)
                absorb(into, sender)

            self.store.absorb = watched

    from repro.core import array_wave

    solver = PASolver(net, seed=5)
    setup = solver.prepare(partition)
    original = array_wave.ReverseArrayKernel
    array_wave.ReverseArrayKernel = Watched
    try:
        result = solver.solve(setup, values, SUM, charge_setup=False)
    finally:
        array_wave.ReverseArrayKernel = original
    assert touched_after_firing == []
    assert sorted(fired) == list(range(len(fired)))  # every key, once
    assert result.aggregates == {
        pid: sum(values[v] for v in members)
        for pid, members in enumerate(partition.members)
    }


CONCAT = Aggregation("concat", lambda a, b: a + b)


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_the_fold_order_is_the_scalar_one(mode):
    """An order-sensitive merge: equal aggregates mean equal fold order."""
    for seed in range(8):
        net = random_connected(24, 0.1, seed=seed, uid_seed=seed)
        partition = random_connected_partition(net, 3, seed=seed)
        values = [(v,) for v in range(net.n)]
        answers = []
        for impl in ("scalar", "array"):
            solver = PASolver(
                net, mode=mode, seed=seed,
                engine=ENGINE_OF[impl](net, strict_bits=False, strict_edges=False),
            )
            res = solver.solve(solver.prepare(partition), values, CONCAT)
            answers.append((list(res.aggregates.items()), res.value_at_node))
        assert answers[0] == answers[1]
        for pid, members in enumerate(partition.members):
            assert sorted(dict(answers[0][0])[pid]) == sorted(members)


# ----------------------------------------------------------------------
# Error parity: the audits name the same message on both engines
# ----------------------------------------------------------------------
def _error(net, partition, values, agg, impl):
    solver = PASolver(net, seed=4, engine=ENGINE_OF[impl](net))
    setup = solver.prepare(partition)
    with pytest.raises(BandwidthExceededError) as caught:
        solver.solve(setup, values, agg, charge_setup=False)
    err = caught.value
    return (err.src, err.dst, err.bits, err.limit)


@pytest.mark.parametrize("payload", ["int", "tuple"])
def test_too_wide_a_value_raises_the_same_error_on_both_engines(payload):
    net = grid_2d(5, 5, uid_seed=1)
    partition = random_connected_partition(net, 3, seed=6)
    if payload == "int":  # the column fold cannot hold it; the list does
        values, agg = [1 << 90] * net.n, MIN
    else:
        values, agg = [(v, 1 << 90) for v in range(net.n)], MIN_TUPLE
    # one wide value among narrow ones: the first offender is a real choice
    values[: net.n // 2] = [1 if payload == "int" else (0, 1)] * (net.n // 2)
    scalar = _error(net, partition, values, agg, "scalar")
    assert scalar[2] > scalar[3]
    assert _error(net, partition, values, agg, "array") == scalar


def test_int_column_too_wide_raises_the_same_error_on_both_engines():
    # Narrow enough for the int64 column fold, too wide for the budget.
    net = grid_2d(3, 3, uid_seed=1)  # 16 * 4 = 64-bit messages
    partition = random_connected_partition(net, 2, seed=1)
    values = [(1 << 60) + v for v in range(net.n)]
    assert _folds_as_a_column(values, MAX)
    scalar = _error(net, partition, values, MAX, "scalar")
    assert _error(net, partition, values, MAX, "array") == scalar


def test_same_edge_twice_at_capacity_one_raises_the_same_error():
    from repro.congest.engine import ArrayProgram, Engine, FunctionProgram

    net = grid_2d(2, 3)

    def start(ctx):
        ctx.send(1, 0, "x")
        ctx.send(4, 3, "y")
        ctx.send(4, 3, "z")

    class Twice(ArrayProgram):
        def array_start(self, actx):
            actx.emit([1, 4, 4], [0, 3, 3], cols={"v": [0, 1, 2]}, bits=8)

        def array_tick(self, actx, d):
            raise AssertionError("the audit precedes the tick")

    errors = []
    for engine, program in (
        (Engine(net), FunctionProgram("twice", start, lambda *a: None)),
        (Engine(net), Twice()),
    ):
        with pytest.raises(ChannelCapacityError) as caught:
            engine.run(program, max_ticks=3)
        err = caught.value
        errors.append((err.src, err.dst, err.count, err.capacity))
    assert errors == [(4, 3, 2, 1)] * 2
