"""Per-phase ledgers of the four cluster-merging loops, held to digests.

Star-merging Boruvka (Corollary 1.3, deterministic mode), k-dominating
sets (Corollary A.3, k = 12), the CDS connection phase (Corollary A.2)
and leaderless PA (Algorithm 9) on a 7x8 grid and a 60-node 4-regular
graph, on a plain and on a reuse+batch session.  Each case is pinned by
``(phase count, rounds, messages)`` and one SHA-256 over every phase's
``(name, rounds, messages, ticks, bits)`` in order.  First captured on the
commit before the loops shared one ``SuperOps`` push, one outgoing-edge
pick and one decode (PR 18): the witness that the shared step charges
what each hand-written one did.  Recaptured once, when a setup began to
learn its route (PR 20): every one of these loops makes many solves per
setup, and each literal moved by exactly the audited rule — the
``*_wave`` phases of non-first solves on a setup gone, their ``*_reverse``
/ ``*_replay`` at the setup's forest size, ``mst_neighbor_exchange``
charging only relabelled nodes, every other phase equal with ticks and
bits (CHANGES, PR 20, lists old -> new).
"""

import hashlib

import pytest

from repro import SUM, PASession
from repro.algorithms import (
    connected_dominating_set,
    k_dominating_set,
    minimum_spanning_tree,
)
from repro.core.no_leader import solve_pa_without_leaders
from repro.graphs import (
    grid_2d,
    random_connected_partition,
    random_regular,
    with_distinct_weights,
)

GRAPHS = {
    "grid7x8": lambda: with_distinct_weights(grid_2d(7, 8), seed=3),
    "reg60": lambda: with_distinct_weights(random_regular(60, 4, seed=5), seed=4),
}
SESSIONS = {"plain": {}, "reuse+batch": {"reuse": True, "batch": True}}


def _mst_star(net, session):
    return minimum_spanning_tree(
        net, mode=session.mode, seed=5, merging="star", session=session
    ).ledger


def _kdom(net, session):
    return k_dominating_set(
        net, 12, mode=session.mode, seed=5, session=session
    ).ledger


def _cds(net, session):
    return connected_dominating_set(
        net, mode=session.mode, seed=5, session=session
    ).ledger


def _alg9(net, session):
    partition = random_connected_partition(net, 5, seed=2)
    values = [(v * 7 + 3) % 101 for v in range(net.n)]
    return solve_pa_without_leaders(
        net, partition, values, SUM, mode=session.mode, solver=session.solver
    ).ledger


#: (algorithm, mode, graph, session) -> (phases, rounds, messages, digest).
EXPECTED = {
    ('mst-star', 'deterministic', 'grid7x8', 'plain'):
        (661, 1377, 19248, '7b7d5e625d850bd3'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (232, 631, 8160, '18765ec2a09d5ac3'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1016, 3183, 34334, 'ce0112302a88773d'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (430, 1479, 17782, '3d4dc8975ab48791'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (114, 79, 2353, '036253e1e2128acf'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (114, 86, 2649, '0e1d1702d4c29764'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (194, 231, 5150, '2927d85ebfa76458'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (194, 240, 5524, '89921c30cc7279bf'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (290, 314, 6301, 'e18d0a0a28129af6'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (122, 131, 2910, '0f46307baa878612'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (481, 510, 11889, '0c82c245759aee67'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (202, 261, 5763, 'bfbba51ff658e8b7'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (199, 1568, 21554, '3d08588ce671f1ed'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (95, 500, 8397, 'ee73cd96e94f6fbd'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (127, 956, 17001, 'c961383ef4cfc842'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (77, 277, 9123, '0c3e5bf68c0b3204'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (368, 1075, 12054, '3640a6341e3bab28'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (285, 884, 11141, '53bbe44933cc2c2c'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1142, 2695, 32443, '934049a171a5d971'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (814, 1565, 22830, '6f298e03565f0fbc'),
}

RUNS = {"mst-star": _mst_star, "kdom": _kdom, "cds": _cds, "alg9": _alg9}


def _signature(ledger):
    phases = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]
    digest = hashlib.sha256(repr(phases).encode()).hexdigest()[:16]
    return (len(phases), ledger.rounds, ledger.messages, digest)


@pytest.mark.parametrize("case", EXPECTED, ids="/".join)
def test_merge_loop_ledger_is_the_parents(case):
    algorithm, mode, graph, session_kind = case
    net = GRAPHS[graph]()
    session = PASession(net, mode=mode, seed=5, **SESSIONS[session_kind])
    assert _signature(RUNS[algorithm](net, session)) == EXPECTED[case]
