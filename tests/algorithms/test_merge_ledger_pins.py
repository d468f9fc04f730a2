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
lists old -> new).  Sixteen literals were recaptured when a reused solve
became one all-reduce on its remembered forest: every ``*_reverse`` /
``*_replay`` pair of a solve on a learned route became one
``*_allreduce`` with the pair's messages and no more rounds, every
other phase is equal with ticks and bits, and the four CDS literals,
which run no reused solve, did not move (CHANGES lists old -> new).  The
ten randomized literals were recaptured when only self-sampled
candidates began to start the election's flood: in the k-dominating
and reuse+batch CDS runs only ``leader_election`` moved (fewer
messages, rounds equal or one fewer); in the plain CDS and Algorithm 9
runs every randomized draw after the election moved too, because the
candidate draw comes first off the solver's random stream.  The
deterministic literals, which elect without a draw, did not move.
The sixteen MST, k-dominating and CDS literals were recaptured when the
knowledge of neighbors' parts became one engine-run ``part_exchange``
per setup the session builds over a previous one (only the nodes whose
part leader changed send, after a merge only across their old part's
border): MST keeps one ``mst_neighbor_exchange``, on every edge in its
first phase, and loses ``coarsen_boundary_exchange``; the plain
k-dominating and CDS runs gain a ``part_exchange`` per later setup.
Only those exchange phases moved — every other phase is equal with
ticks and bits — and the Algorithm 9 literals did not move.  Seven
literals were recaptured when the verification that accepts a fresh
build's shortcut became its setup's first solve: each first solve on a
verified fresh setup (two in plain reg60 star MST, two or five
``cds_pick`` solves in plain CDS, Algorithm 9's first ``alg9_pick`` and
its final ``pa`` solve) runs one ``*_allreduce`` at twice its old
``*_replay``'s messages instead of wave, reversal and replay; every
other phase is equal with ticks and bits, and the reuse+batch runs,
whose later setups are carries, did not move (CHANGES lists old -> new).
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
        (589, 1182, 11901, '737159f68f5c2310'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (151, 471, 6141, '37863f668aa5e715'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (863, 2044, 22992, '5a5ab17dbdbc0e92'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (271, 1113, 14760, '1c878ddfb27d322d'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (80, 71, 1443, '929cf06c9d73e2d6'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (74, 63, 1220, '8aea3122506295d3'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (132, 183, 4147, '9cd2297e07187370'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (123, 170, 3767, '8c3811866eecb9f0'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (256, 296, 3674, 'c21d3e15985c116e'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (82, 108, 1731, '791e3ebeea04527e'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (419, 437, 7553, 'e2db05e3745bb1a0'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (131, 192, 4327, '1f4e3f6fdd279625'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (63, 386, 6348, 'e93979558584310b'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (48, 162, 5077, '33d8201a68f73ec2'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (90, 406, 10246, 'fa1cf27f6941e662'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (60, 156, 6910, '185c80b8a89ccf07'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (238, 753, 9836, 'd4557d16f8bec3e8'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (185, 585, 8101, '46a7d024837b1197'),
    ('alg9', 'deterministic', 'grid7x8', 'plain'):
        (1012, 2244, 20609, 'efd59dab5a31cf12'),
    ('alg9', 'deterministic', 'reg60', 'plain'):
        (714, 1280, 13490, 'ed0ef1442e7baefd'),
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
