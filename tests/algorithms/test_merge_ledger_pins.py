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
bits (CHANGES, PR 20, lists old -> new).  Recaptured again when what the
wave layer already knows stopped being paid for twice (PR 21), by that
PR's audited rule: a learning solve's ``*_replay`` at its forest size,
the ``coarsen_verify_*`` of a projection whose parent's block counts
imply the budget gone (the next solve on that setup carries their
``_wave`` and wire ``_reverse``), one ``annotate_blocks`` fewer per
build that iterated, every other phase equal (CHANGES, PR 21).  The four
CDS literals were recaptured when its connection loop began to join by
rank under a public seed (PR 23: ``cds_seed`` once, ``cds_pick`` alone
where ``cds_pickcoins`` / ``cds_pick`` + ``cds_coins`` ran, the exchange
on the wire as ``cds_target_exchange``, fewer rounds of all of it); the
star-joining loops did not move.
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
        (661, 1377, 19140, 'b21d2b25266f936b'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (226, 600, 7694, '0d5b83ce92356952'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1014, 3185, 33756, '61866c064be41ce7'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (422, 1433, 17017, 'd265f7ccd625ce22'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (114, 78, 2351, 'eb3fb8e62ec410b6'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (110, 74, 2425, 'ff67f8e779eba567'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (194, 229, 5130, 'ce52f5cbd1405577'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (188, 221, 5144, '950881f19daee19f'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (290, 312, 6294, 'b61dbcf7ef369e15'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (118, 119, 2686, '64d9459c0878dee0'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (481, 508, 11858, '0434951b8efc6319'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (196, 242, 5383, 'e0550861aeba5793'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (64, 408, 7841, '0b3dadf1f2dde2c8'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (48, 180, 6008, '4c6e9d079c248935'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (95, 532, 13933, '88ae0418cd92f62b'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (60, 179, 8189, '090c32e3a65e35b8'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (366, 1053, 11596, '384947912cd1217b'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (283, 861, 10333, '80ac2c1c7ee6a373'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1140, 2674, 32059, '33e9438586fe37bc'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (812, 1548, 22640, '2a59dff3aa51a24c'),
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
