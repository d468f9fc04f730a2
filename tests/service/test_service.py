"""PAService: multi-tenant query serving over an evolving graph.

Correctness against sequential oracles, the batching economy (shared
waves must beat per-query waves on rounds AND messages), shared-cost
tenant attribution, epoch barriers around updates, and the pool/session
lifecycle the service rides on.
"""

from __future__ import annotations

import pytest

from repro import PAService, PASession
from repro.graphs import random_connected, random_connected_partition
from repro.graphs.partitions import Partition
from repro.service import (
    AggregateQuery,
    max_query,
    min_query,
    sum_query,
    top_k_query,
)


def _fixture(n=40, parts=6, seed=11):
    net = random_connected(n, 0.08, seed=seed)
    partition = random_connected_partition(net, parts, seed=5)
    return net, partition


def _oracle(partition, values, fold):
    return {
        pid: fold(values[v] for v in partition.members[pid])
        for pid in range(partition.num_parts)
    }


# -- query correctness --------------------------------------------------

def test_query_kinds_match_oracles():
    net, partition = _fixture()
    readings = [(v * 17) % 101 for v in range(net.n)]
    with PAService(net, partition, seed=3) as svc:
        ids = {
            "min": svc.submit("a", min_query(readings)),
            "max": svc.submit("a", max_query(readings)),
            "sum": svc.submit("b", sum_query(readings)),
            "top2": svc.submit("b", top_k_query(readings, 2)),
        }
        svc.flush()
        assert svc.result(ids["min"]).aggregates == _oracle(
            partition, readings, min
        )
        assert svc.result(ids["max"]).aggregates == _oracle(
            partition, readings, max
        )
        assert svc.result(ids["sum"]).aggregates == _oracle(
            partition, readings, sum
        )
        top2 = svc.result(ids["top2"]).aggregates
        want = {
            pid: tuple(
                sorted((readings[v] for v in partition.members[pid]),
                       reverse=True)[:2]
            )
            for pid in range(partition.num_parts)
        }
        assert top2 == want


def test_auto_flush_at_max_batch():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3, max_batch=3) as svc:
        q1 = svc.submit("a", min_query(values))
        q2 = svc.submit("b", sum_query(values))
        assert svc.pending == 2
        q3 = svc.submit("c", max_query(values))  # hits max_batch
        assert svc.pending == 0
        assert svc.stats.waves == 1
        assert svc.stats.batched_queries == 3
        for qid in (q1, q2, q3):
            assert svc.result(qid).wave == 0


def test_result_pops_and_raises_while_pending():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3) as svc:
        qid = svc.submit("a", min_query(values))
        with pytest.raises(KeyError):
            svc.result(qid)  # still queued
        svc.flush()
        svc.result(qid)
        with pytest.raises(KeyError):
            svc.result(qid)  # pop-once


def test_value_vector_length_validated():
    net, partition = _fixture()
    with PAService(net, partition, seed=3) as svc:
        with pytest.raises(ValueError):
            svc.submit("a", min_query(list(range(net.n - 1))))


def test_query_kind_validated():
    with pytest.raises(ValueError):
        AggregateQuery("median", (1, 2, 3))
    with pytest.raises(ValueError):
        AggregateQuery("top_k", (1, 2, 3), k=0)


# -- the batching economy ----------------------------------------------

def test_batched_waves_beat_sequential_on_rounds_and_messages():
    net, partition = _fixture()
    queries = [
        min_query([(v * 7 + t) % 59 for v in range(net.n)])
        for t in range(4)
    ]

    batched = PAService(net, partition, seed=3, max_batch=4)
    for t, q in enumerate(queries):
        batched.submit(f"tenant{t}", q)
    assert batched.stats.waves == 1

    sequential = PAService(net, partition, seed=3, max_batch=1)
    for t, q in enumerate(queries):
        sequential.submit(f"tenant{t}", q)
    assert sequential.stats.waves == 4

    # Same answers...
    b = [r.aggregates for r in (batched._results[i] for i in range(4))]
    s = [r.aggregates for r in (sequential._results[i] for i in range(4))]
    assert b == s
    # ...for strictly fewer rounds AND messages (one broadcast/reversal/
    # replay instead of four).
    assert batched.ledger.rounds < sequential.ledger.rounds
    assert batched.ledger.messages < sequential.ledger.messages
    batched.close()
    sequential.close()


def test_shared_cost_tenant_attribution():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3, max_batch=2) as svc:
        svc.submit("a", min_query(values))
        svc.submit("b", sum_query(values))  # flushes: one shared wave
        wave_rounds = svc.result(0).rounds

        # Both tenants carry the wave's FULL cost on their own streams.
        la, lb = svc.tenant_ledger("a"), svc.tenant_ledger("b")
        assert la.rounds == lb.rounds == wave_rounds
        assert la.stream == "tenant:a" and lb.stream == "tenant:b"
        # Summing tenant ledgers over-counts the (shared) service truth:
        # the surplus is the batching win.
        served = svc.ledger.rounds - sum(
            p.rounds for p in svc.ledger.phases()
            if p.name.startswith(("prepare:", "update:", "edges:"))
        )
        assert la.rounds + lb.rounds == 2 * served


def test_solo_wave_attribution_matches_service_ledger():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3) as svc:
        svc.submit("only", min_query(values))
        svc.flush()
        served = svc.ledger.rounds - sum(
            p.rounds for p in svc.ledger.phases()
            if p.name.startswith("prepare:")
        )
        assert svc.tenant_ledger("only").rounds == served
        assert svc.stats.solo_queries == 1


# -- the evolving graph -------------------------------------------------

def test_update_partition_is_an_epoch_barrier():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3, max_batch=8) as svc:
        qid = svc.submit("a", sum_query(values))
        assert svc.pending == 1
        coarse = Partition([0] * net.n)
        svc.update_partition(coarse)
        # The pending query was served against the OLD partition...
        assert svc.pending == 0
        assert svc.result(qid).aggregates == _oracle(partition, values, sum)
        # ...and the next one sees the new epoch.
        q2 = svc.submit("a", sum_query(values))
        svc.flush()
        assert svc.result(q2).aggregates == {0: sum(values)}
        assert svc.stats.partition_updates == 1


def test_update_partition_coarsen_then_refine_reuses_the_session():
    net, partition = _fixture()
    values = [(v * 3) % 23 for v in range(net.n)]
    with PAService(net, partition, seed=3) as svc:
        svc.update_partition(Partition([0] * net.n))   # merge-only
        svc.update_partition(partition)                # split-only, back
        stats = svc.session_stats()
        assert stats["coarsenings"] == 1
        assert stats["refinements"] + stats["cache_hits"] >= 1
        qid = svc.submit("a", min_query(values))
        svc.flush()
        assert svc.result(qid).aggregates == _oracle(partition, values, min)


def test_update_edges_repairs_and_keeps_answers_fresh():
    net, partition = _fixture()
    values = [(v * 5) % 37 for v in range(net.n)]
    with PAService(net, partition, seed=3) as svc:
        before = svc.net
        missing = next(
            (u, v)
            for u in range(net.n)
            for v in range(u + 2, net.n)
            if not net.has_edge(u, v)
        )
        report = svc.update_edges(add=[missing])
        assert report.added == 1
        assert svc.net is not before
        assert svc.net.has_edge(*missing)
        assert svc.stats.edge_updates == 1

        qid = svc.submit("a", sum_query(values))
        svc.flush()
        assert svc.result(qid).aggregates == _oracle(partition, values, sum)

        # Twin service built fresh on the updated graph answers the same.
        with PAService(svc.net, partition, seed=3) as twin:
            q2 = twin.submit("a", sum_query(values))
            twin.flush()
            assert twin.result(q2).aggregates == _oracle(
                partition, values, sum
            )


def test_update_edges_flushes_pending_first():
    net, partition = _fixture()
    values = list(range(net.n))
    with PAService(net, partition, seed=3, max_batch=8) as svc:
        qid = svc.submit("a", min_query(values))
        missing = next(
            (u, v)
            for u in range(net.n)
            for v in range(u + 2, net.n)
            if not net.has_edge(u, v)
        )
        svc.update_edges(add=[missing])
        assert svc.pending == 0
        assert svc.result(qid).aggregates == _oracle(partition, values, min)


# -- lifecycle ----------------------------------------------------------

def test_close_drains_the_queue():
    net, partition = _fixture()
    values = list(range(net.n))
    svc = PAService(net, partition, seed=3, max_batch=8)
    qid = svc.submit("a", max_query(values))
    svc.close()
    assert svc.result(qid).aggregates == _oracle(partition, values, max)
    svc.close()  # idempotent


def test_adopted_session_must_have_reuse_and_batch():
    net, partition = _fixture()
    plain = PASession(net, seed=3)
    with pytest.raises(ValueError):
        PAService(partition=partition, session=plain)
    good = PASession(net, seed=3, reuse=True, batch=True)
    with PAService(partition=partition, session=good) as svc:
        assert svc.session is good


def test_constructor_validation():
    net, partition = _fixture()
    with pytest.raises(ValueError):
        PAService(net, partition, max_batch=0)
    with pytest.raises(ValueError):
        PAService(net, None)
    with pytest.raises(ValueError):
        PAService(partition=partition)  # no net, no session
    # Execution is configured on the session, nowhere else.
    with pytest.raises(TypeError):
        PAService(net, partition, backend="sharded")
