"""Session lifecycle: close semantics, pool hygiene, report freshness.

The bug class under test is the leaked forked worker: every path that
abandons an orchestrator — ``with`` exit, double close, a worker dying
mid-wave, a cached setup superseded or cleared — must reap or release it
explicitly rather than trusting the garbage collector.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import PASession
from repro.core import SUM
from repro.core.aggregation import Aggregation
from repro.graphs import random_connected, random_connected_partition
from repro.graphs.partitions import (
    boundary_edges,
    partition_from_component_labels,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded backend requires the fork start method",
)


def _fixture(**kw):
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, 8, seed=5)
    session = PASession(net, seed=3, **kw)
    return session, partition


def test_context_manager_closes_local_session():
    with PASession(random_connected(20, 0.15, seed=2), seed=1) as session:
        assert not session._closed
    assert session._closed


def test_close_is_idempotent():
    session, _ = _fixture()
    session.close()
    session.close()
    assert session._closed
    assert session._orchestrator is None


@needs_fork
def test_context_manager_reaps_worker_pool():
    session, partition = _fixture(
        backend="sharded", workers=2, shard_min_n=0
    )
    with session:
        setup = session.prepare(partition)
        session.solve(setup, list(range(session.net.n)), SUM)
        assert session.stats.sharded_solves == 1
        assert session._orchestrator is not None
    assert session._orchestrator is None
    # Doubly-closed sharded session: still a no-op.
    session.close()


@needs_fork
def test_mid_solve_failure_reaps_the_pool():
    session, partition = _fixture(
        backend="sharded", workers=2, shard_min_n=0
    )
    setup = session.prepare(partition)
    values = list(range(session.net.n))
    session.solve(setup, values, SUM)  # builds the orchestrator
    boom = RuntimeError("worker died mid-wave")

    class _Exploding:
        def solve(self, *a, **kw):
            raise boom

        def close(self):
            self.closed = True

    session._orchestrator = _Exploding()
    with pytest.raises(RuntimeError, match="mid-wave"):
        session.solve(setup, values, SUM)
    # The suspect pool was closed AND dropped, not left dangling.
    assert session._orchestrator is None
    # A retry lazily rebuilds a fresh pool and still answers.  (The
    # counter tracks attempts, so the exploded solve counted too.)
    result = session.solve(setup, values, SUM)
    assert session.stats.sharded_solves == 3
    expected = {
        pid: sum(values[v] for v in partition.members[pid])
        for pid in range(partition.num_parts)
    }
    assert result.aggregates == expected
    session.close()


@needs_fork
def test_shard_report_goes_stale_after_in_process_fallback():
    session, partition = _fixture(
        backend="sharded", workers=2, shard_min_n=0
    )
    try:
        setup = session.prepare(partition)
        values = list(range(session.net.n))
        session.solve(setup, values, SUM)
        assert session.shard_report is not None

        # A custom (non-stock) aggregation falls back in-process; the
        # previous sharded report must NOT leak through.
        custom = Aggregation("custom", lambda a, b: a + b)
        session.solve(setup, values, custom)
        assert session.stats.sharded_fallbacks == 1
        assert session.shard_report is None

        # The next sharded solve refreshes it.
        session.solve(setup, values, SUM)
        assert session.shard_report is not None
    finally:
        session.close()


def test_shard_report_none_on_local_backend():
    session, partition = _fixture()
    setup = session.prepare(partition)
    session.solve(setup, list(range(session.net.n)), SUM)
    assert session.shard_report is None


@needs_fork
def test_clear_cache_releases_all_shipped_setups():
    session, partition = _fixture(
        backend="sharded", workers=2, shard_min_n=0, reuse=True
    )
    try:
        setup = session.prepare(partition)
        session.solve(setup, list(range(session.net.n)), SUM)
        orch = session._orchestrator
        assert orch._shipped
        session.clear_cache()
        assert not orch._shipped
    finally:
        session.close()


@needs_fork
def test_a_superseded_coarsening_is_released():
    """Each link of a coarsening chain supersedes the one before it; the
    dropped entry's shipped copy must leave the workers with it, so after
    any number of merges the workers hold exactly the live cache."""
    session, partition = _fixture(
        backend="sharded", workers=2, shard_min_n=1, reuse=True
    )
    try:
        values = list(range(session.net.n))
        setup = session.prepare(partition)
        session.solve(setup, values, SUM)
        for step in range(4):
            part_of = setup.partition.part_of
            u, v = boundary_edges(session.net, setup.partition)[step]
            keep, gone = part_of[u], part_of[v]
            setup = session.prepare_incremental(
                setup, partition_from_component_labels(
                    [keep if p == gone else p for p in part_of]
                ),
            )
            session.solve(setup, values, SUM)
        assert session.stats.coarsenings == 4
        assert session.stats.sharded_solves == 5
        shipped = {
            id(s) for s, _id, _h in session._orchestrator._shipped.values()
        }
        assert shipped == {id(s) for s in session._cache.values()}
        assert len(shipped) == 2  # the fresh prepare's entry and the last link
    finally:
        session.close()


def test_closed_session_keeps_serving_in_process():
    session, partition = _fixture(reuse=True)
    setup = session.prepare(partition)
    session.close()
    values = list(range(session.net.n))
    result = session.solve(setup, values, SUM, charge_setup=False)
    expected = {
        pid: sum(values[v] for v in partition.members[pid])
        for pid in range(partition.num_parts)
    }
    assert result.aggregates == expected
