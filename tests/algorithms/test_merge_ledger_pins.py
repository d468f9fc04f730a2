"""Per-phase ledgers of the four cluster-merging loops, held to digests.

Star-merging Boruvka (Corollary 1.3, deterministic mode), k-dominating
sets (Corollary A.3, k = 12), the CDS connection phase (Corollary A.2)
and leaderless PA (Algorithm 9) on a 7x8 grid and a 60-node 4-regular
graph, on a plain and on a reuse+batch session.  Each case is pinned by
``(phase count, rounds, messages)`` and one SHA-256 over every phase's
``(name, rounds, messages, ticks, bits)`` in order, captured on the commit
before the loops shared one ``SuperOps`` push, one outgoing-edge pick and
one decode (PR 18): the witness that the shared step charges what each
hand-written one did.
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
        (733, 1705, 25979, '2c4942e0fb68e153'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (307, 1008, 19457, 'd05bf8c310f28763'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1163, 4287, 66366, 'a6c7262c76353676'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (581, 2500, 57146, '5cdba17057e31704'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (150, 120, 2518, '8c6c914bc3a434b2'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (152, 153, 3611, 'e813d4eeaf8a48af'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (259, 422, 7040, 'c588c4b4e6e01e8b'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (262, 463, 11788, '7291a35b746c70a3'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (326, 370, 6496, '8d33039286091dc9'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (160, 198, 3872, '14a88a0489da5e77'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (546, 726, 13941, 'ff2d8ccb2d5013f7'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (270, 484, 12027, '329b16474948da10'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (212, 1752, 26206, '8f61e91796d2f839'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (107, 669, 11558, 'dcf3fe7ef6826951'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (134, 1085, 20036, 'ab4ae824575f6dcb'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (83, 336, 10561, 'efc11ca66c7760e1'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (492, 1471, 18772, '4d6e2350e4f9636c'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (379, 1226, 15057, '277c0fd4c3367c72'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1266, 3427, 40973, '69f256cfb16f8776'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (908, 1997, 27292, '0d975632c5f5fd5a'),
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
