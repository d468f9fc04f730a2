"""Which waves leave the value store's int64 columns, and why.

The wave value store folds every factor that ``fold_op`` folds on int64
columns — MST's composite ``(weight, uid, uid)`` keys, the relabel's
``(uid, uid)`` pairs with ``None``, the service batch's min and sum — and
notes a ``kernel_fallback`` for each other factor only.  Pinned on a
traced reuse+batch MST (no fallback at all) and a small service stream of
min / sum / top-2 / min waves with updates in between (only the top-2
factor of each batch, ``unsupported_agg``).  The GHS comparator's MOE
broadcast and the s-t verifiers' label convergecast are plain column
payloads: traced, they note no fallback either.
"""

from __future__ import annotations

import random

from repro import PAService, PASession
from repro.algorithms import (
    minimum_spanning_tree,
    verify_st_connectivity,
    verify_st_cut,
)
from repro.baselines import ghs_mst
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_regular,
    with_distinct_weights,
)
from repro.obs import Tracer, use_tracer
from repro.service import min_query, sum_query, top_k_query


def _fallbacks(tracer):
    return [e["args"] for e in tracer.events if e["name"] == "kernel_fallback"]


def test_a_reuse_batch_mst_folds_every_key_on_columns():
    net = with_distinct_weights(random_regular(64, 4, seed=3), seed=4)
    tracer = Tracer()
    with use_tracer(tracer):
        session = PASession(net, seed=3, reuse=True, batch=True)
        minimum_spanning_tree(net, seed=3, session=session)
    assert [e for e in tracer.events if e["name"] == "pa.route"]
    assert _fallbacks(tracer) == []


def test_a_service_stream_lists_only_its_top_k_factor():
    net = grid_2d(12, 12)
    partition = bfs_ball_partition(net, 20, seed=1)
    rng = random.Random(5)
    tracer = Tracer()
    waves = 4
    with use_tracer(tracer):
        service = PAService(
            partition=partition,
            session=PASession(net, seed=2, reuse=True, batch=True),
            max_batch=4,
        )
        for wave in range(waves):
            readings = [rng.randint(0, 500) for _ in range(net.n)]
            for tenant, query in (
                ("ops", min_query(readings)),
                ("billing", sum_query([1] * net.n)),
                ("science", top_k_query(readings, 2)),
                ("ops", min_query([r + 1 for r in readings])),
            ):
                service.submit(tenant, query)
            service.flush()
            if wave == 1:  # a chord: the next waves run on a rebound net
                service.update_edges(add=[(0, net.n - 1)])
    assert _fallbacks(tracer) == [
        {
            "phase": f"serve{wave}q_reverse", "reason": "unsupported_agg",
            "factor": "top2",
        }
        for wave in range(waves)
    ]


def test_ghs_and_the_st_verifiers_ship_column_payloads():
    """The GHS MOE broadcast and ``st_up``'s label pair fold on columns."""
    net = with_distinct_weights(grid_2d(8, 8), seed=4)
    half = [e for e in net.edges if max(e) < 32 or min(e) >= 32]
    tracer = Tracer()
    with use_tracer(tracer):
        assert ghs_mst(net, seed=3).output
        assert not verify_st_connectivity(net, half, 0, 63, seed=1).output
        assert verify_st_connectivity(net, half, 0, 31, seed=1).output
        assert verify_st_cut(net, set(net.edges) - set(half), 0, 63).output
    names = [e["name"] for e in tracer.ledger_events("main")]
    assert names.count("st_up") == 3 and "ghs_control_broadcast" in names
    assert _fallbacks(tracer) == []
