"""Per-phase pins of one fixed merge / split / edge-update sequence.

Every setup, report and solve ledger of the sequence, phase by phase as
``(name, rounds, messages)``, against literals captured on the commit
before the coarsen / refine twins became one projection (PR 16) — phase
order included, in both modes.  The two full prepares are pinned by
``(phase count, rounds, messages)``; their phases are the solver's.
Since PR 21 all three projections of the sequence are *implied* (every
part's carried block bound is 0): their ``{kind}_verify_*`` phases are
gone from the setup ledgers and the batch solve after each is the one
that learns the route — it carries exactly the ``_wave`` and wire
``_reverse`` the verification used to, and replays on the forest.  The
deterministic mode's two full prepares fell once since, in their
Algorithm 6 phases only, when the division began to speak only on news;
and the rebuild's ``leader_election`` (with the randomized rebuild's
``subpart_*`` claims) fell when the token floods stopped handing a token
back to the neighbors that had just delivered it.  The solves' ``_wave``
/ ``_reverse`` / ``_replay`` literals fell when the token wave began to
hand a token on in the tick a node gains it and never back to a neighbor
that sent it (CHANGES lists old -> new).  Every projection and report
literal is the captured one.
"""

import pytest

from repro import MIN, SUM, PASession
from repro.graphs import grid_2d
from repro.graphs.partitions import Partition

MODES = ("randomized", "deterministic")


def _phases(ledger):
    return [(p.name, p.rounds, p.messages) for p in ledger.phases()]


def _run_sequence(mode):
    """6x6 grid, rows: merge two rows, split the merged part left / right
    (severing both row paths of the sub-part forest), add a chord (repair),
    merge again from the rebound setup, remove a tree edge (rebuild)."""
    net = grid_2d(6, 6)
    rows = Partition([v // 6 for v in range(net.n)])
    merged = Partition([max(0, v // 6 - 1) for v in range(net.n)])
    halves = Partition([
        (0 if v % 6 < 3 else 5) if v < 12 else v // 6 - 1
        for v in range(net.n)
    ])
    remerged = Partition([p - (p > 3) for p in halves.part_of])  # rows 4, 5
    values = [(v * 7) % 11 for v in range(net.n)]
    session = PASession(net, mode=mode, seed=3, reuse=True, batch=True)
    log = {}

    def solve(tag, setup):
        batch = session.solve_many(
            setup, [(values, MIN), (values, SUM)], charge_setup=False
        )
        log[tag + ":batch"] = _phases(batch.ledger)
        single = session.solve(setup, values, SUM, charge_setup=False)
        log[tag + ":int"] = _phases(single.ledger)

    def total(ledger):
        return (len(ledger.phases()), ledger.rounds, ledger.messages)

    setup = session.prepare(rows)
    log["prepare"] = total(setup.setup_ledger)
    setup = session.prepare_incremental(setup, merged)
    log["merge"] = _phases(setup.setup_ledger)
    solve("merge", setup)
    setup = session.prepare_incremental(setup, halves)
    log["split"] = _phases(setup.setup_ledger)
    solve("split", setup)
    log["add"] = _phases(session.apply_edge_updates(add=[(0, 7)]).ledger)
    setup = session.prepare_incremental(None, halves)
    log["add:hit"] = _phases(setup.setup_ledger)
    solve("add", setup)
    setup = session.prepare_incremental(setup, remerged)
    log["remerge"] = _phases(setup.setup_ledger)
    solve("remerge", setup)
    tree_edge = next(
        (v, p) for v, p in enumerate(session.tree.parent)
        if p >= 0 and remerged.part_of[v] != remerged.part_of[p]
    )
    log["remove"] = _phases(
        session.apply_edge_updates(remove=[tree_edge]).ledger
    )
    setup = session.prepare_incremental(None, remerged)
    log["remove:prepare"] = total(setup.setup_ledger)
    solve("remove", setup)
    log["stats"] = {k: v for k, v in session.stats.as_dict().items() if v}
    return log


EXPECTED = {'randomized': {'prepare': (4, 11, 90),
                'merge': [('coarsen_boundary_exchange', 1, 24),
                          ('annotate_blocks', 0, 0)],
                'merge:batch': [('pa_batch_wave', 6, 36),
                                ('pa_batch_reverse', 6, 36),
                                ('pa_batch_replay', 6, 31)],
                'merge:int': [('pa_reverse', 6, 31), ('pa_replay', 6, 31)],
                'split': [('refine_boundary_exchange', 1, 24),
                          ('annotate_blocks', 0, 0)],
                'split:batch': [('pa_batch_wave', 6, 34),
                                ('pa_batch_reverse', 6, 34),
                                ('pa_batch_replay', 6, 30)],
                'split:int': [('pa_reverse', 6, 30), ('pa_replay', 6, 30)],
                'add': [('edge_update_notify', 1, 2)],
                'add:hit': [],
                'add:batch': [('pa_batch_wave', 6, 37),
                              ('pa_batch_reverse', 6, 37),
                              ('pa_batch_replay', 6, 30)],
                'add:int': [('pa_reverse', 6, 30), ('pa_replay', 6, 30)],
                'remerge': [('coarsen_boundary_exchange', 1, 24),
                            ('annotate_blocks', 0, 0)],
                'remerge:batch': [('pa_batch_wave', 7, 43),
                                  ('pa_batch_reverse', 7, 43),
                                  ('pa_batch_replay', 7, 31)],
                'remerge:int': [('pa_reverse', 7, 31), ('pa_replay', 7, 31)],
                'remove': [('edge_update_notify', 1, 2),
                           ('rebuild:leader_election', 8, 273),
                           ('rebuild:child_ack', 1, 35)],
                'remove:prepare': (4, 13, 105),
                'remove:batch': [('pa_batch_wave', 7, 43),
                                 ('pa_batch_reverse', 7, 43),
                                 ('pa_batch_replay', 7, 31)],
                'remove:int': [('pa_reverse', 7, 31), ('pa_replay', 7, 31)],
                'stats': {'prepares': 2,
                          'cache_hits': 1,
                          'coarsenings': 2,
                          'refinements': 1,
                          'implied': 3,
                          'solves': 5,
                          'routed_solves': 5,
                          'batched_solves': 10,
                          'edge_updates': 2,
                          'repairs': 1,
                          'graph_rebuilds': 1,
                          'repair_evictions': 3}},
 'deterministic': {'prepare': (166, 203, 1282),
                   'merge': [('coarsen_boundary_exchange', 1, 24),
                             ('annotate_blocks', 0, 0)],
                   'merge:batch': [('pa_batch_wave', 6, 36),
                                   ('pa_batch_reverse', 6, 36),
                                   ('pa_batch_replay', 6, 31)],
                   'merge:int': [('pa_reverse', 6, 31), ('pa_replay', 6, 31)],
                   'split': [('refine_boundary_exchange', 1, 24),
                             ('annotate_blocks', 0, 0)],
                   'split:batch': [('pa_batch_wave', 6, 34),
                                   ('pa_batch_reverse', 6, 34),
                                   ('pa_batch_replay', 6, 30)],
                   'split:int': [('pa_reverse', 6, 30), ('pa_replay', 6, 30)],
                   'add': [('edge_update_notify', 1, 2)],
                   'add:hit': [],
                   'add:batch': [('pa_batch_wave', 6, 37),
                                 ('pa_batch_reverse', 6, 37),
                                 ('pa_batch_replay', 6, 30)],
                   'add:int': [('pa_reverse', 6, 30), ('pa_replay', 6, 30)],
                   'remerge': [('coarsen_boundary_exchange', 1, 24),
                               ('annotate_blocks', 0, 0)],
                   'remerge:batch': [('pa_batch_wave', 7, 43),
                                     ('pa_batch_reverse', 7, 43),
                                     ('pa_batch_replay', 7, 31)],
                   'remerge:int': [('pa_reverse', 7, 31),
                                   ('pa_replay', 7, 31)],
                   'remove': [('edge_update_notify', 1, 2),
                              ('rebuild:leader_election', 8, 273),
                              ('rebuild:child_ack', 1, 35)],
                   'remove:prepare': (166, 243, 1583),
                   'remove:batch': [('pa_batch_wave', 7, 43),
                                    ('pa_batch_reverse', 7, 43),
                                    ('pa_batch_replay', 7, 31)],
                   'remove:int': [('pa_reverse', 7, 31), ('pa_replay', 7, 31)],
                   'stats': {'prepares': 2,
                             'cache_hits': 1,
                             'coarsenings': 2,
                             'refinements': 1,
                             'implied': 3,
                             'solves': 5,
                             'routed_solves': 5,
                             'batched_solves': 10,
                             'edge_updates': 2,
                             'repairs': 1,
                             'graph_rebuilds': 1,
                             'repair_evictions': 3}}}


@pytest.mark.parametrize("mode", MODES)
def test_sequence_ledgers_match_the_pinned_literals(mode):
    log = _run_sequence(mode)
    assert list(log) == list(EXPECTED[mode])
    for step, want in EXPECTED[mode].items():
        assert log[step] == want, step
