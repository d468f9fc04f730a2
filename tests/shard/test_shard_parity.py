"""The sharded backend's contract: bit-for-bit parity with the serial engine.

Every test compares a ``backend="sharded"`` session against a plain
in-process session on the same network/partition/seed and asserts the
*full phase log* — ``(name, rounds, messages)`` entry for entry — plus
aggregates and per-node values are identical.  ``bits`` are deliberately
excluded: part-id relabeling shrinks per-message pid widths on a shard
(documented in docs/architecture.md, "Sharded backend").
"""

from __future__ import annotations

import random

import pytest

from repro import PASession
from repro.core import MIN, MIN_TUPLE, SUM, XOR
from repro.core.aggregation import Aggregation
from repro.graphs import (
    grid_2d,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.algorithms import minimum_spanning_tree
from repro.obs import Tracer, use_tracer

MODES = ["randomized", "deterministic"]
WORKER_COUNTS = [1, 2, 4]


def _phase_sig(ledger):
    return [(p.name, p.rounds, p.messages) for p in ledger.phases()]


def _net_and_partition():
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, 8, seed=5)
    return net, partition


def _values(n, seed=7):
    rng = random.Random(seed)
    return [rng.randrange(1000) for _ in range(n)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_solve_parity(mode, workers):
    net, partition = _net_and_partition()
    values = _values(net.n)

    serial = PASession(net, mode=mode, seed=3)
    expected = serial.solve(serial.prepare(partition), values, SUM)

    session = PASession(
        net, mode=mode, seed=3,
        backend="sharded", workers=workers, shard_min_n=0,
    )
    try:
        result = session.solve(session.prepare(partition), values, SUM)
        assert session.stats.sharded_solves == 1
        assert session.stats.sharded_fallbacks == 0
        assert result.aggregates == expected.aggregates
        assert result.value_at_node == expected.value_at_node
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_scalar_path_parity(workers):
    """Tuple values: the workers' array reversals fold them as a list."""
    net, partition = _net_and_partition()
    values = [(v, i) for i, v in enumerate(_values(net.n, seed=9))]

    serial = PASession(net, seed=3)
    expected = serial.solve(serial.prepare(partition), values, MIN_TUPLE)

    session = PASession(
        net, seed=3, backend="sharded", workers=workers, shard_min_n=0,
    )
    try:
        result = session.solve(session.prepare(partition), values, MIN_TUPLE)
        assert session.stats.sharded_solves == 1
        assert result.aggregates == expected.aggregates
        assert result.value_at_node == expected.value_at_node
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


def test_batched_solve_many_parity():
    net, partition = _net_and_partition()
    values = _values(net.n)
    items = [(values, SUM), (values, MIN)]

    serial = PASession(net, seed=3, batch=True)
    expected = serial.solve_many(serial.prepare(partition), items)

    session = PASession(
        net, seed=3, batch=True,
        backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        result = session.solve_many(session.prepare(partition), items)
        assert session.stats.sharded_solves == 1
        assert session.stats.batched_solves == len(items)
        for got, want in zip(result.per_agg, expected.per_agg):
            assert got.aggregates == want.aggregates
            assert got.value_at_node == want.value_at_node
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


def test_product_batch_runs_under_the_shipped_fold_decision():
    """A (SUM, MIN, XOR) product on two workers equals the local session's
    aggregates and ledger; how its reversal folds — SUM and MIN on
    columns, XOR as a list — is decided once, rank-0 side, on the global
    values, and shipped in the plan."""
    net, partition = _net_and_partition()
    values = _values(net.n)
    items = [(values, SUM), (values, MIN), (values, XOR)]

    serial = PASession(net, seed=3, batch=True)
    serial_setup = serial.prepare(partition)
    expected = serial.solve_many(serial_setup, items)

    session = PASession(
        net, seed=3, batch=True,
        backend="sharded", workers=2, shard_min_n=1,
    )
    try:
        setup = session.prepare(partition)
        tracer = Tracer()
        with use_tracer(tracer):
            result = session.solve_many(setup, items)
        assert session.stats.sharded_solves == 1
        assert session.stats.sharded_fallbacks == 0
        for got, want in zip(result.per_agg, expected.per_agg):
            assert got.aggregates == want.aggregates
            assert got.value_at_node == want.value_at_node
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
        # One decline of the column fold for the whole solve, of the one
        # factor no ufunc folds — not one per shard — and none of the
        # waves themselves.
        assert [
            e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
        ] == [{
            "phase": "pa_batch_reverse", "reason": "unsupported_agg",
            "factor": "xor",
        }]

        # The decision is global: one value past 2**62 makes every shard
        # fold a list, also those whose own values would fit a column.
        wide = list(values)
        wide[0] = 1 << 62
        want = serial.solve(serial_setup, wide, SUM)  # routed, both sides
        tracer = Tracer()
        with use_tracer(tracer):
            got = session.solve(setup, wide, SUM)
        assert got.aggregates == want.aggregates
        assert got.value_at_node == want.value_at_node
        assert _phase_sig(got.ledger) == _phase_sig(want.ledger)
        assert [
            e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
        ] == [{"phase": "pa_reverse", "reason": "overflow"}]
    finally:
        session.close()


@pytest.mark.parametrize("backend", ["local", "sharded"])
def test_solve_is_solve_many_of_one(backend):
    """One route: solve and a one-item solve_many are the same request."""
    net, partition = _net_and_partition()
    values = _values(net.n)

    def fresh():
        return PASession(
            net, seed=3, batch=True,
            backend=backend, workers=2, shard_min_n=0,
        )

    single, many = fresh(), fresh()
    try:
        one = single.solve(single.prepare(partition), values, SUM)
        batch = many.solve_many(
            many.prepare(partition), [(values, SUM)], phase_prefixes=["pa"]
        )
        got = batch.per_agg[0]
        assert got.aggregates == one.aggregates
        assert got.value_at_node == one.value_at_node
        assert _phase_sig(batch.ledger) == _phase_sig(one.ledger)
        assert many.stats.as_dict() == single.stats.as_dict()
        sharded = backend == "sharded"
        assert single.stats.sharded_solves == (1 if sharded else 0)
        assert (single.shard_report is not None) == sharded
        assert (many.shard_report is not None) == sharded
    finally:
        single.close()
        many.close()


def test_batched_product_routes_by_its_factors():
    """A stock product ships sharded; a lambda factor is a counted fallback."""
    net, partition = _net_and_partition()
    values = _values(net.n)
    custom = Aggregation("custom_sum", lambda a, b: a + b)

    serial = PASession(net, seed=3, batch=True)
    serial_setup = serial.prepare(partition)
    session = PASession(
        net, seed=3, batch=True,
        backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        setup = session.prepare(partition)
        for items, fallbacks in (
            ([(values, SUM), (values, MIN)], 0),
            ([(values, SUM), (values, custom)], 1),
        ):
            expected = serial.solve_many(serial_setup, items)
            result = session.solve_many(setup, items)
            assert result.batched
            assert session.stats.sharded_solves == 1
            assert session.stats.sharded_fallbacks == fallbacks
            assert (session.shard_report is None) == bool(fallbacks)
            for got, want in zip(result.per_agg, expected.per_agg):
                assert got.aggregates == want.aggregates
            assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
        assert session.stats.batched_solves == 4
        assert session.stats.solves == 0
    finally:
        session.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("first", ["local", "sharded"])
def test_a_route_learned_on_one_side_serves_the_other(mode, first):
    """One sharded session, solves alternating between the workers (SUM)
    and the in-process fallback (a lambda aggregation), against a local
    session making the same solves: whichever side ran the setup's first
    solve, the other holds no forest for the route rank 0 says is paid —
    it re-derives it off the ledger, and every phase log stays the local
    one: one ``*_wave`` in all, in a learning solve of two wire passes and
    a replay on the forest its shards just learned, then one all-reduce
    on the forest a solve, twice the forest's edges in messages.  The
    parts are no wider than D, so no verification learns the route first
    (``test_a_verified_setup_is_routed_on_both_sides`` is that case)."""
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, 20, seed=5)
    values = _values(net.n)
    custom = Aggregation("custom_sum", lambda a, b: a + b)
    order = [custom, SUM] if first == "local" else [SUM, custom]
    order += order[::-1]

    serial = PASession(net, mode=mode, seed=3)
    serial_setup = serial.prepare(partition)
    session = PASession(
        net, mode=mode, seed=3, backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        setup = session.prepare(partition)
        waves = 0
        for agg in order:
            want = serial.solve(serial_setup, values, agg, charge_setup=False)
            got = session.solve(setup, values, agg, charge_setup=False)
            assert (session.shard_report is None) == (agg is custom)
            assert got.aggregates == want.aggregates
            assert got.value_at_node == want.value_at_node
            assert _phase_sig(got.ledger) == _phase_sig(want.ledger)
            sent = [p.messages for p in got.ledger.phases()]
            if len(sent) == 3:  # wave, wire reversal, forest replay
                waves += 1
                assert sent[0] == sent[1] > sent[2]
                forest = sent[2]
            else:
                assert sent == [2 * forest]
        assert waves == 1
        assert session.stats.sharded_solves == 2
        assert session.stats.sharded_fallbacks == 2
        assert session.stats.routed_solves == serial.stats.routed_solves == 3
    finally:
        session.close()


@pytest.mark.parametrize("mode", MODES)
def test_a_verified_setup_is_routed_on_both_sides(mode):
    """A fresh prepare whose build verified its shortcut holds the route
    that verification learned, in-process on rank 0: no worker has its
    forest, so both re-derive it off the paid delay draw on the first
    sharded solve, and rank 0 — its cache of the forest dropped, as a
    process that never held it — re-derives it for an in-process
    fallback.  Every solve is one all-reduce and every phase log is the
    local twin's; no solve runs a ``*_wave``."""
    net, partition = _net_and_partition()
    values = _values(net.n)
    custom = Aggregation("custom_sum", lambda a, b: a + b)

    serial = PASession(net, mode=mode, seed=3)
    serial_setup = serial.prepare(partition)
    session = PASession(
        net, mode=mode, seed=3, backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        setup = session.prepare(partition)
        assert any("verify" in p.name for p in setup.setup_ledger.phases())
        assert setup.route.delays is not None
        forest = setup.route.forest
        edges = forest.edges
        for k, agg in enumerate([SUM, custom, SUM]):
            if agg is custom:
                setup.route.forest = None
            want = serial.solve(serial_setup, values, agg, charge_setup=False)
            got = session.solve(setup, values, agg, charge_setup=False)
            assert (session.shard_report is None) == (agg is custom)
            if k == 0:
                assert session.shard_report["shards"] == 2
            assert got.aggregates == want.aggregates
            assert got.value_at_node == want.value_at_node
            assert _phase_sig(got.ledger) == _phase_sig(want.ledger)
            assert [
                (p.name, p.messages) for p in got.ledger.phases()
            ] == [("pa_allreduce", 2 * edges)]
        assert setup.route.forest.edges == edges
        assert session.stats.sharded_solves == 2
        assert session.stats.routed_solves == serial.stats.routed_solves == 3
    finally:
        session.close()


def test_unbatched_solve_many_routes_each_item_sharded():
    net, partition = _net_and_partition()
    values = _values(net.n)
    items = [(values, SUM), (values, MIN)]

    serial = PASession(net, seed=3)
    expected = serial.solve_many(serial.prepare(partition), items)

    session = PASession(
        net, seed=3, backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        result = session.solve_many(session.prepare(partition), items)
        assert session.stats.sharded_solves == 2
        for got, want in zip(result.per_agg, expected.per_agg):
            assert got.aggregates == want.aggregates
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mst_end_to_end_parity(mode, workers):
    net = with_distinct_weights(random_connected(40, 0.08, seed=11), seed=3)
    expected = minimum_spanning_tree(net, mode=mode, seed=5)

    session = PASession(
        net, mode=mode, seed=5,
        backend="sharded", workers=workers, shard_min_n=0,
    )
    try:
        result = minimum_spanning_tree(
            net, mode=mode, seed=5, session=session
        )
        # The seam: a solve ends in exactly one final pass outside a
        # ``setup:`` prefix — a learning solve's ``*_replay`` or a reused
        # one's ``*_allreduce``, which the workers run on their own — and
        # every one of them, the star joining's pushes included, went
        # through the session, hence to the shards.
        solves = sum(
            p.name.endswith(("_replay", "_allreduce"))
            and "setup:" not in p.name
            for p in result.ledger.phases()
        )
        assert any(
            p.name.endswith("_allreduce") for p in result.ledger.phases()
        )
        assert session.stats.sharded_solves == solves > 0
        assert session.stats.sharded_fallbacks == 0
        assert sorted(result.output) == sorted(expected.output)
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


def test_grid_parity():
    net = grid_2d(8, 8)
    partition = random_connected_partition(net, 10, seed=9)
    values = _values(net.n)

    serial = PASession(net, seed=1)
    expected = serial.solve(serial.prepare(partition), values, MIN)

    session = PASession(
        net, seed=1, backend="sharded", workers=3, shard_min_n=0,
    )
    try:
        result = session.solve(session.prepare(partition), values, MIN)
        assert result.aggregates == expected.aggregates
        assert _phase_sig(result.ledger) == _phase_sig(expected.ledger)
    finally:
        session.close()


def test_shard_report_populated():
    net, partition = _net_and_partition()
    session = PASession(
        net, seed=3, backend="sharded", workers=2, shard_min_n=0,
    )
    try:
        assert session.shard_report is None
        session.solve(session.prepare(partition), _values(net.n), SUM)
        report = session.shard_report
        assert report is not None
        assert report["workers"] == 2
        assert len(report["shard_wall_seconds"]) == report["shards"]
        assert report["merge_seconds"] >= 0.0
        assert report["ship_seconds"] >= 0.0
    finally:
        session.close()


def test_close_is_idempotent():
    net, partition = _net_and_partition()
    session = PASession(
        net, seed=3, backend="sharded", workers=2, shard_min_n=0,
    )
    session.solve(session.prepare(partition), _values(net.n), SUM)
    session.close()
    session.close()
