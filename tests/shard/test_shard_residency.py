"""One bound on resident shipped setups, and it is the orchestrator's.

Workers hold what they were sent until ``unload``; the rank-0 memo is the
only thing that retires a setup, and it does so through ``release``.  (A
worker-side LRU of 8 under a rank-0 memo of 16 used to make the warm
solve on the first of ten shipped setups fail with "setup not loaded".)
"""

from __future__ import annotations

import pytest

from repro import PASession
from repro.core import SUM
from repro.graphs import grid_2d, random_connected_partition
from repro.shard import orchestrator as orchestrator_module


def _phase_sig(ledger):
    return [(p.name, p.rounds, p.messages) for p in ledger.phases()]


def _sessions():
    net = grid_2d(12, 12)
    local = PASession(net, seed=3, reuse=True)
    sharded = PASession(
        net, seed=3, reuse=True, backend="sharded", workers=2, shard_min_n=1
    )
    partitions = [
        random_connected_partition(net, 6 + k, seed=k) for k in range(10)
    ]
    return net, local, sharded, partitions


def _assert_parity(local, sharded, pairs, values):
    for want_setup, got_setup in pairs:
        want = local.solve(want_setup, values, SUM, charge_setup=False)
        got = sharded.solve(got_setup, values, SUM, charge_setup=False)
        assert _phase_sig(got.ledger) == _phase_sig(want.ledger)
        assert got.aggregates == want.aggregates
        assert got.value_at_node == want.value_at_node


@pytest.mark.parametrize("bound", [16, 3])
def test_warm_solves_on_ten_shipped_setups(monkeypatch, bound):
    """Parity with the local session on all ten setups, in both orders.

    ``bound=16`` keeps all ten resident (the reproduced defect); ``bound=3``
    forces the memo to retire setups mid-stream, which must unload them
    worker side and re-ship on the next solve instead of failing.
    """
    monkeypatch.setattr(orchestrator_module, "_MAX_SHIPPED", bound)
    net, local, sharded, partitions = _sessions()
    values = [(v * 13) % 29 for v in range(net.n)]
    with sharded:
        pairs = [(local.prepare(p), sharded.prepare(p)) for p in partitions]
        _assert_parity(local, sharded, pairs, values)            # cold, 0..9
        _assert_parity(local, sharded, pairs, values)            # warm, 0..9
        _assert_parity(local, sharded, pairs[::-1], values)      # warm, 9..0
        assert sharded.stats.sharded_solves == 30
        assert sharded.stats.sharded_fallbacks == 0
        assert len(sharded._orchestrator._shipped) == min(10, bound)
