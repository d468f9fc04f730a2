"""A reused solve is one all-reduce pass on the remembered wave forest.

Against reversal + replay on the same forest: the same answers, the same
``2 (#keys - #parts)`` messages, and never more ticks.  The scalar and the
array twin agree on the pass's ``(name, rounds, messages, ticks, bits)``,
and the async engine under random delays on the answers.  The instances
are sparse random graphs in few parts, where shortcut blocks overlap
(congestion c > 1); randomized mode then runs at capacity c > 1 and
deterministic mode at capacity 1.  An order-sensitive merge pins the one
fixed fold order of the edge where a part's two halves meet: every member
of a part ends holding the same value, on every engine.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PASolver
from repro.congest import make_schedule
from repro.core.aggregation import MIN_TUPLE, SUM, Aggregation
from repro.core.array_wave import wave_kernels
from repro.core.pa import DETERMINISTIC, RANDOMIZED
from repro.core.wave import ReplayProgram, ReverseProgram, plan_pa_waves
from repro.graphs import random_connected, random_connected_partition

from oracles import ENGINE_OF

#: Associative, not commutative: equal answers mean equal fold order.
CONCAT = Aggregation("concat", lambda a, b: a + b)


def _log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits) for p in ledger.phases()
    ]


def _instance(seed, n, parts):
    net = random_connected(n, 0.06, seed=seed, uid_seed=seed)
    return net, random_connected_partition(net, parts, seed=seed)


def _values(kind, n):
    if kind == "sum":
        return [(v * 7 + 3) % 101 for v in range(n)], SUM
    if kind == "min-tuple":
        return [
            None if v % 5 == 4 else ((v * 7) % 13, v) for v in range(n)
        ], MIN_TUPLE
    return [(v,) for v in range(n)], CONCAT


def _two_passes(solver, setup, values, agg, impl):
    """Reversal then replay on the setup's remembered forest, as every
    reused solve ran them before the all-reduce: (aggregates, values at
    the nodes, messages, ticks)."""
    plan = plan_pa_waves(
        solver.engine, solver.net, setup.partition, setup.division,
        setup.shortcut, values, agg,
        randomized=solver.mode == RANDOMIZED, rng=random.Random(0),
    )
    forest = setup.route.forest
    _wave, reversal, replay, _allreduce = (
        wave_kernels(plan.fold) if impl == "array"
        else (None, ReverseProgram, ReplayProgram, None)
    )

    def run(program):
        return solver.engine.run(
            program, max_ticks=4 * plan.max_ticks, capacity=plan.capacity,
            rounds_per_tick=plan.rounds_per_tick,
        )

    reverse = reversal(forest, agg, values, capacity=plan.capacity)
    up = run(reverse)
    replayed = replay(forest, reverse.results, capacity=plan.capacity)
    down = run(replayed)
    return (
        dict(reverse.results), replayed.value_at_node(),
        up.messages + down.messages, up.ticks + down.ticks,
    )


def _keys(forest) -> int:
    return len(forest.parent)


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(30, 70),
    parts=st.integers(2, 4),
    mode=st.sampled_from([RANDOMIZED, DETERMINISTIC]),
    kind=st.sampled_from(["sum", "min-tuple", "concat"]),
    delay=st.integers(1, 5),
)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_one_pass_against_reversal_and_replay(seed, n, parts, mode, kind, delay):
    net, partition = _instance(seed, n, parts)
    values, agg = _values(kind, net.n)
    audits = kind != "concat"
    runs = {}
    for impl in ("scalar", "array"):
        solver = PASolver(
            net, mode=mode, seed=seed % 97,
            engine=ENGINE_OF[impl](net, strict_bits=audits, strict_edges=audits),
        )
        setup = solver.prepare(partition)
        solver.solve(setup, values, agg, charge_setup=False)
        reused = solver.solve(setup, values, agg, charge_setup=False)
        ((name, _rounds, messages, ticks, _bits),) = log = _log(reused.ledger)
        assert name == "pa_allreduce"
        forest = setup.route.forest
        old, old_at_node, old_messages, old_ticks = _two_passes(
            solver, setup, values, agg, impl
        )
        assert messages == old_messages == 2 * (
            _keys(forest) - partition.num_parts
        )
        assert ticks <= old_ticks
        answers = (reused.aggregates, reused.value_at_node)
        if agg is CONCAT:
            # The same multiset, folded in the all-reduce's own order; the
            # one value every member of a part holds is its part's.
            assert {p: sorted(t) for p, t in reused.aggregates.items()} == {
                p: sorted(t) for p, t in old.items()
            }
            assert reused.value_at_node == [
                reused.aggregates[pid] for pid in partition.part_of
            ]
        else:
            assert answers == (old, old_at_node)
        runs[impl] = (log, answers)
    assert runs["array"] == runs["scalar"]

    # The async engine under random delays: the same answers.
    solver = PASolver(
        net, mode=mode, seed=seed % 97,
        schedule=make_schedule("random", seed=seed, max_delay=delay),
        strict_bits=audits, strict_edges=audits,
    )
    setup = solver.prepare(partition)
    solver.solve(setup, values, agg, charge_setup=False)
    reused = solver.solve(setup, values, agg, charge_setup=False)
    assert [p.name for p in reused.ledger.phases()] == ["pa_allreduce"]
    assert (reused.aggregates, reused.value_at_node) == runs["scalar"][1]


@pytest.mark.parametrize("mode, capacity", [(RANDOMIZED, 3), (DETERMINISTIC, 1)])
def test_the_instances_contend(mode, capacity):
    """The property above meets blocks shared by several parts, at both
    capacities: pinned on one instance of its family."""
    net, partition = _instance(0, 60, 3)
    solver = PASolver(net, mode=mode, seed=3)
    setup = solver.prepare(partition)
    values, agg = _values("sum", net.n)
    plan = plan_pa_waves(
        solver.engine, net, partition, setup.division, setup.shortcut,
        values, agg, randomized=mode == RANDOMIZED, rng=random.Random(0),
    )
    assert setup.shortcut.quality()[1] > 1
    assert plan.capacity == capacity
