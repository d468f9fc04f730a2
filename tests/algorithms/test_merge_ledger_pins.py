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
new).
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
        (661, 1312, 12385, '385a93e4a5904425'),
    ('mst-star', 'deterministic', 'grid7x8', 'reuse+batch'):
        (226, 589, 7121, 'bc814b875a3f1d5e'),
    ('mst-star', 'deterministic', 'reg60', 'plain'):
        (1014, 3065, 24488, 'f6bd71e02e3ef9ad'),
    ('mst-star', 'deterministic', 'reg60', 'reuse+batch'):
        (422, 1413, 16104, '535fd72e6dbb8456'),
    ('kdom', 'randomized', 'grid7x8', 'plain'):
        (114, 77, 1795, '7646f944de92a78a'),
    ('kdom', 'randomized', 'grid7x8', 'reuse+batch'):
        (110, 73, 1869, '04d52b66fb7db982'),
    ('kdom', 'randomized', 'reg60', 'plain'):
        (194, 220, 4492, 'ef21f26ad15e1ab8'),
    ('kdom', 'randomized', 'reg60', 'reuse+batch'):
        (188, 212, 4506, '480ab1c8368dc45d'),
    ('kdom', 'deterministic', 'grid7x8', 'plain'):
        (290, 304, 3785, 'edb2d6d9902eb647'),
    ('kdom', 'deterministic', 'grid7x8', 'reuse+batch'):
        (118, 118, 2130, 'c56d8d60c19eaaea'),
    ('kdom', 'deterministic', 'reg60', 'plain'):
        (481, 481, 7599, '843a29071f9faac6'),
    ('kdom', 'deterministic', 'reg60', 'reuse+batch'):
        (196, 233, 4745, 'ce9f2ff7402f7d82'),
    ('cds', 'randomized', 'grid7x8', 'plain'):
        (64, 408, 7841, '0b3dadf1f2dde2c8'),
    ('cds', 'randomized', 'grid7x8', 'reuse+batch'):
        (48, 180, 6008, '4c6e9d079c248935'),
    ('cds', 'randomized', 'reg60', 'plain'):
        (95, 532, 13933, '88ae0418cd92f62b'),
    ('cds', 'randomized', 'reg60', 'reuse+batch'):
        (60, 179, 8189, '090c32e3a65e35b8'),
    ('alg9', 'randomized', 'grid7x8', 'plain'):
        (366, 1051, 10714, '507f9c23f42f491f'),
    ('alg9', 'randomized', 'reg60', 'plain'):
        (283, 861, 9496, 'b84244bd24d69e80'),
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
