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
star-joining loops did not move.  The sixteen star-joining literals were
recaptured when Algorithms 5 and 6 began to speak only on news (a fresh
receiver publishes its status and an undecided super-node its color; a
node re-announces a changed label only; the division's sweeps skip its
complete sub-parts): phase for phase the same names, and only
``*_cross_down``, the division's ``det_*`` phases inside a setup and the
``*_replay`` / ``*_reverse`` of the solves behind a push fell — no phase
rose, every other one is equal with ticks and bits (CHANGES lists old ->
new).  Eighteen literals were recaptured when flood-min and claim BFS
stopped handing a token back to the neighbors that had just delivered
it: only ``leader_election`` and the ``subpart_*`` claim phases fell (in
messages, and in rounds by at most one), every other phase is equal with
ticks and bits.
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
        (661, 1311, 12145, '80376e3741a636b4'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (226, 588, 6881, '4b53b128f47ba63a'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1014, 3065, 24296, '7fbd6fb373f6bd2d'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (422, 1413, 15912, 'd5dbbdf83d341ca6'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (114, 76, 1554, '4e0f7c8fa2f5149f'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (110, 72, 1629, '14ed2ce6367ede56'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (194, 220, 4300, 'a389175b8a211649'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (188, 212, 4314, 'f5bf83db22851f49'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (290, 303, 3545, 'fa97cfdd6dd44b9d'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (118, 117, 1890, 'ae1dbba04c84ddb0'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (481, 481, 7407, '26a39fa0ba8d7417'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (196, 233, 4553, '42cab1ea91bee5bd'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (64, 407, 7515, 'c94581db9cf10d0b'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (48, 179, 5768, '7ea319c9d6562ab7'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (95, 532, 13586, 'a729223fbc8e87b4'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (60, 179, 7997, '19ee375ea0aacc07'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (366, 1051, 10627, 'f865f80930bd7525'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (283, 861, 9467, '97244a599b6963d1'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1140, 2526, 21295, '6edbdf7f80883b94'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (812, 1481, 13862, 'd3ac860cdc052bd0'),
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
