"""When the sharded backend must decline: fallbacks and merge mechanics."""

from __future__ import annotations

import pytest

from repro import PASession, PASolver
from repro.congest import SynchronousSchedule
from repro.congest.ledger import PhaseStats
from repro.core import SUM
from repro.core.aggregation import Aggregation
from repro.graphs import random_connected, random_connected_partition
from repro.core.pa import product_aggregation
from repro.shard import encode_aggregation, merge_shard_phases
from repro.shard.ledger_merge import phases_to_wire
from repro.core.aggregation import MAX, MIN


def _session(schedule=None, **kw):
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, 8, seed=5)
    if schedule is not None:
        kw["solver"] = PASolver(net, seed=3, schedule=schedule)
    session = PASession(net, seed=3, **kw)
    return session, partition


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        _session(backend="distributed")


def test_custom_aggregation_falls_back():
    custom = Aggregation("custom", lambda a, b: a + b)
    session, partition = _session(
        backend="sharded", workers=2, shard_min_n=0
    )
    try:
        setup = session.prepare(partition)
        values = list(range(session.net.n))
        result = session.solve(setup, values, custom)
        assert session.stats.sharded_fallbacks == 1
        assert session.stats.sharded_solves == 0
        assert session.stats.solves == 1
        # The fallback still answers correctly.
        expected = PASession(session.net, seed=3).solve(
            PASession(session.net, seed=3).prepare(partition), values, custom
        )
        assert result.aggregates == expected.aggregates
    finally:
        session.close()


def test_small_network_falls_back():
    session, partition = _session(backend="sharded", workers=2)
    try:
        setup = session.prepare(partition)
        session.solve(setup, list(range(session.net.n)), SUM)
        assert session.stats.sharded_fallbacks == 1
        assert session.stats.sharded_solves == 0
    finally:
        session.close()


def test_async_session_falls_back():
    session, partition = _session(
        backend="sharded", workers=2, shard_min_n=0,
        schedule=SynchronousSchedule(),
    )
    try:
        setup = session.prepare(partition)
        session.solve(setup, list(range(session.net.n)), SUM)
        assert session.stats.sharded_fallbacks == 1
        assert session.stats.sharded_solves == 0
    finally:
        session.close()


def test_encode_aggregation_registry():
    assert encode_aggregation(SUM) == ("stock", "SUM")
    assert encode_aggregation(MIN) == ("stock", "MIN")
    assert encode_aggregation(Aggregation("custom", min)) is None
    assert encode_aggregation(product_aggregation([MIN, MAX])) == (
        "product", ["MIN", "MAX"]
    )
    custom_product = product_aggregation([MIN, Aggregation("custom", min)])
    assert encode_aggregation(custom_product) is None


def test_merge_shard_phases_rule():
    a = phases_to_wire([
        PhaseStats(name="pa_wave", rounds=5, messages=10, ticks=5, bits=100),
        PhaseStats(name="pa_reverse", rounds=3, messages=4, ticks=3, bits=40),
    ])
    b = phases_to_wire([
        PhaseStats(name="pa_wave", rounds=7, messages=20, ticks=7, bits=150),
        PhaseStats(name="pa_reverse", rounds=2, messages=6, ticks=2, bits=60),
    ])
    merged = merge_shard_phases([a, b])
    assert [(p.name, p.rounds, p.messages, p.ticks, p.bits) for p in merged] == [
        ("pa_wave", 7, 30, 7, 250),
        ("pa_reverse", 3, 10, 3, 100),
    ]


def test_merge_rejects_divergent_logs():
    a = phases_to_wire([PhaseStats(name="pa_wave", rounds=1, messages=1)])
    b = phases_to_wire([PhaseStats(name="pa_replay", rounds=1, messages=1)])
    with pytest.raises(RuntimeError, match="diverge"):
        merge_shard_phases([a, b])


def test_merge_empty_is_empty():
    assert merge_shard_phases([]) == []
