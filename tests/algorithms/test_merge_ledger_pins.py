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
ticks and bits.  Nineteen literals were recaptured when the token wave
began to hand a token on in the tick a node gains it and never back to
a neighbor that sent it: only ``*_wave``, ``*_reverse`` and ``*_replay``
phases moved, every other phase is equal with ticks and bits (CHANGES
lists old -> new).
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
        (661, 1290, 11999, 'c0c09dbb8057ae5c'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (226, 582, 6547, '2700fa5c15a49fbf'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1014, 2356, 23566, '46d985b5a6b08d7e'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (422, 1407, 15436, '43faa1d6ba92ac80'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (114, 74, 1552, '006a2cc2c3bf795c'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (110, 68, 1479, '716d9ec64144c13a'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (194, 220, 4300, 'a389175b8a211649'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (188, 210, 4074, '62dedf25e229a97e'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (290, 299, 3533, 'dffe29045f424b73'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (118, 113, 1740, '72fe81102412f626'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (481, 473, 7385, 'fa31fbc5f1a4ebc7'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (196, 231, 4313, '032194a02b92cf51'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (64, 379, 6781, 'a371db452200b431'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (48, 162, 5484, '2b2fa66406a2ee1b'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (95, 454, 11638, '1c63606f52b952d9'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (60, 157, 7539, 'd4bab93ba94295b5'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (366, 1007, 10081, '7393ed43ff4a691f'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (283, 855, 8657, '614dde2ad9f08c6a'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1140, 2484, 20837, '0f13010479682943'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (812, 1458, 13680, '59a4dd3b3d26895f'),
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
