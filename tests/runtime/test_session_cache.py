"""The session memo: every distinct partition stays until superseded.

The memo has no size bound.  Its one removal rule, supersession (a
coarsening drops the link before it), is pinned in ``test_session.py``
and, with the shard workers' copies, in ``test_session_lifecycle.py``.
"""

from __future__ import annotations

from repro import PASession
from repro.graphs import grid_2d
from repro.graphs.partitions import Partition


def _net():
    return grid_2d(4, 6)


def _partition(net, block: int) -> Partition:
    """Partition a 4x6 grid into vertical strips ``block`` columns wide."""
    assert 6 % block == 0
    part_of = [(v % 6) // block for v in range(net.n)]
    return Partition(part_of)


def _distinct_partitions(net):
    """Six structurally distinct connected partitions of the grid."""
    parts = [_partition(net, b) for b in (1, 2, 3, 6)]
    rows = Partition([v // 6 for v in range(net.n)])
    halves = Partition([0 if v < 12 else 1 for v in range(net.n)])
    return parts + [rows, halves]


def test_unbounded_cache_is_the_default():
    net = _net()
    sess = PASession(net, reuse=True)
    for p in _distinct_partitions(net):
        sess.prepare(p)
    assert len(sess._cache) == 6
