"""``PAService.flush`` never drops what it dequeued.

The reproduced defect: one micro-batch whose packed k-tuples outgrow the
message budget used to raise out of the auto-flush *after* the queue had
been swapped for ``[]`` — every queued query of every tenant was gone
(``pending == 0``, nothing on the ledger, ``result(qid)`` a ``KeyError``
for all of them).  Now such a wave is served as narrower waves, a query
too wide alone carries its own error, and any other failure puts the
queue and the wave counters back.
"""

from __future__ import annotations

import pytest

from repro import PAService
from repro.congest.errors import BandwidthExceededError
from repro.graphs import bfs_ball_partition, grid_2d
from repro.service import min_query, sum_query


def _oracle(partition, values, fold):
    return {
        pid: fold(values[v] for v in partition.members[pid])
        for pid in range(partition.num_parts)
    }


def _served_rounds(svc):
    return svc.ledger.rounds - sum(
        p.rounds for p in svc.ledger.phases()
        if p.name.startswith(("prepare:", "update:", "edges:"))
    )


def _check_attribution(svc, results):
    """Tenant ledgers sum to the service ledger plus exactly the shared
    waves: each wave's cost once per tenant that had a query in it."""
    waves = {}
    for r in results:
        rounds, tenants = waves.setdefault(r.wave, (r.rounds, set()))
        assert rounds == r.rounds
        tenants.add(r.tenant)
    assert _served_rounds(svc) == sum(rounds for rounds, _t in waves.values())
    assert sum(svc.tenant_ledger(t).rounds for t in svc.tenants) == sum(
        rounds * len(tenants) for rounds, tenants in waves.values()
    )


def test_over_wide_micro_batch_is_served_as_narrower_waves():
    net = grid_2d(8, 8)  # a 96-bit budget
    partition = bfs_ball_partition(net, 9, seed=3)
    svc = PAService(net, partition, seed=1, max_batch=12)
    vectors = [
        [(v * 977 + 13 * i) % 100000 for v in range(net.n)] for i in range(12)
    ]
    # The twelfth submit auto-flushes a twelve-wide wave: 157 bits a
    # message, which used to raise here and lose all twelve queries.
    ids = [
        svc.submit(("ops", "billing", "science")[i % 3], sum_query(values))
        for i, values in enumerate(vectors)
    ]
    assert svc.pending == 0
    assert svc.stats.split_waves >= 1
    assert svc.stats.waves >= 2
    assert svc.stats.batched_queries == 12
    results = [svc.result(qid) for qid in ids]
    for values, result in zip(vectors, results):
        assert result.aggregates == _oracle(partition, values, sum)
    # Every attempt, served or not, took its own wave number.
    prefixes = {
        p.name.split("_")[0] for p in svc.ledger.phases()
        if p.name.startswith("serve")
    }
    assert prefixes == {f"serve{r.wave}q" for r in results}
    assert len(prefixes) == svc.stats.waves
    _check_attribution(svc, results)
    svc.close()


def test_a_query_too_wide_alone_fails_alone():
    net = grid_2d(6, 6)
    partition = bfs_ball_partition(net, 9, seed=3)
    small = [v % 7 for v in range(net.n)]
    huge = [1 << 200] * net.n  # no message holds even one of these
    with PAService(net, partition, seed=2, max_batch=8) as svc:
        ok_a = svc.submit("a", min_query(small))
        bad = svc.submit("b", sum_query(huge))
        ok_b = svc.submit("b", sum_query(small))
        answered = svc.flush()
        assert svc.pending == 0
        assert [r.query_id for r in answered] == [ok_a, ok_b]
        assert svc.result(ok_a).aggregates == _oracle(partition, small, min)
        assert svc.result(ok_b).aggregates == _oracle(partition, small, sum)
        with pytest.raises(BandwidthExceededError):
            svc.result(bad)
        with pytest.raises(KeyError):
            svc.result(bad)  # pop-once, like an answer
        _check_attribution(svc, answered)


def test_any_other_failure_puts_queue_and_counters_back(monkeypatch):
    net = grid_2d(6, 6)
    partition = bfs_ball_partition(net, 9, seed=3)
    values = list(range(net.n))
    with PAService(net, partition, seed=2, max_batch=8) as svc:
        first = svc.submit("a", min_query(values))
        svc.flush()
        queued = [
            svc.submit("a", min_query(values)),
            svc.submit("b", sum_query(values)),
        ]
        before = (svc.stats.as_dict(), svc.ledger.rounds)

        def boom(*args, **kwargs):
            raise RuntimeError("worker died")

        with monkeypatch.context() as patch:
            patch.setattr(svc.session, "solve_many", boom)
            with pytest.raises(RuntimeError, match="worker died"):
                svc.flush()
        assert svc.pending == 2
        assert (svc.stats.as_dict(), svc.ledger.rounds) == before
        for qid in queued:
            with pytest.raises(KeyError):
                svc.result(qid)
        # The retry serves the same queries under the wave number the
        # failed attempt gave back.
        answered = svc.flush()
        assert [r.query_id for r in answered] == queued
        assert {r.wave for r in answered} == {svc.result(first).wave + 1}
        assert answered[1].aggregates == _oracle(partition, values, sum)


def test_a_wave_that_failed_commits_no_route():
    """The over-wide wave above is the first solve on a fresh setup, and it
    raises in its reversal — after its token wave ran.  Its ledger is
    discarded, so its route must be too: the retried halves pay for
    exactly one ``_wave`` between them (the first half learns, every wave
    after it runs on the route), never for none."""
    net = grid_2d(8, 8)
    partition = bfs_ball_partition(net, 9, seed=3)
    svc = PAService(net, partition, seed=1, max_batch=12)
    for i in range(12):
        values = [(v * 977 + 13 * i) % 100000 for v in range(net.n)]
        svc.submit("ops", sum_query(values))
    assert svc.stats.split_waves >= 1
    served = [
        p.name for p in svc.ledger.phases() if p.name.startswith("serve")
    ]
    prefixes = sorted(
        {name.rsplit("_", 1)[0] for name in served},
        key=lambda prefix: int(prefix[len("serve"):-1]),
    )
    assert len(prefixes) == svc.stats.waves >= 2
    first, *rest = prefixes
    assert served[:3] == [f"{first}_wave", f"{first}_reverse", f"{first}_replay"]
    assert served[3:] == [f"{prefix}_allreduce" for prefix in rest]
    # Every attempt after the one that learned — served, or halved once
    # more — ran on the route; none before it did.
    numbers = [int(prefix[len("serve"):-1]) for prefix in prefixes]
    assert numbers[0] >= 1  # wave 0 is the twelve-wide one that failed
    assert svc.session.stats.routed_solves == numbers[-1] - numbers[0]
    svc.close()
