"""Pins of the two shortcut constructions over their one doubling loop.

``build_shortcut_randomized`` (Algorithm 4) and
``build_shortcut_deterministic`` (Algorithm 8) share the claim / verify /
freeze loop and differ in the claim step; their per-phase ledgers
``(name, rounds, messages)`` and every ``ShortcutBuildResult`` field are
held to literals captured on the commit before the loop was shared
(PR 16), on a grid and a 4-regular graph.  Recaptured once (PR 21): a
build that iterated returns its last verified candidate instead of
annotating a copy of it — one trailing ``annotate_blocks`` fewer — and
each one-off verification replays on the forest it just learned
(``*_replay`` at ``#keys - #parts`` messages); every other phase and
every result field equal, CHANGES lists old -> new.  Recaptured again
when the token wave began to hand a token on in the tick a node gains
it and never back to a neighbor that sent it: only the verifications'
``*_wave`` / ``*_reverse`` / ``*_replay`` moved (fewer messages, no more
rounds), every other phase and every result field equal.  The six
randomized literals were recaptured when only self-sampled candidates
began to start the election's flood: the tree the claims climb has
another root, and the candidate draw comes first off the solver's random
stream, so the claims and the verifications moved (the 10x10 grid's
default build 102 -> 126 claim messages, the 4-regular graph's 135 ->
142); iterations and quality are equal, and the deterministic literals,
elected without a draw, did not move.
"""

import hashlib

import pytest

from repro import PASolver
from repro.congest import CostLedger
from repro.core import corefast
from repro.core.corefast import build_shortcut_randomized
from repro.core.det_shortcut import build_shortcut_deterministic
from repro.core.subparts import build_subpart_division_randomized
from repro.core.subparts_det import build_subpart_division_deterministic
from repro.graphs import bfs_ball_partition, grid_2d, random_regular
from oracles import edges_of_part, total_shortcut_edges

#: graph -> (network, BFS-ball size): parts larger than the 2-approximate
#: diameter, so they claim (smaller parts never do).
GRAPHS = {
    "grid": lambda: (grid_2d(10, 10), 34),
    "regular": lambda: (random_regular(96, 4, seed=7), 24),
}
#: The defaults; a budget tight enough that parts retry under doubled
#: budgets until each has one block; and a run that can only end by the
#: iteration cap force-freezing every still-active part.
RUNS = {
    "default": {},
    "doubling": {"congestion_budget": 1, "block_target": 1},
    "capped": {"congestion_budget": 1, "block_target": 0, "max_iterations": 2},
}


def _construct(graph, mode, run):
    """``(build result, its ledger, the partition)`` of one construction."""
    net, ball = GRAPHS[graph]()
    partition = bfs_ball_partition(net, ball, seed=3)
    solver = PASolver(net, mode=mode, seed=6)
    leaders = solver.default_leaders(partition)
    scratch = CostLedger()
    ledger = CostLedger()
    if mode == "randomized":
        division = build_subpart_division_randomized(
            solver.engine, net, partition, leaders, solver.diameter,
            scratch, solver.rng,
        )
        build = build_shortcut_randomized(
            solver.engine, net, partition, division, solver.tree,
            solver.diameter, ledger, solver.rng, **RUNS[run],
        )
    else:
        division = build_subpart_division_deterministic(
            solver.engine, net, partition, leaders, solver.diameter, scratch,
        )
        build = build_shortcut_deterministic(
            solver.engine, net, partition, division, solver.tree,
            solver.diameter, ledger, **RUNS[run],
        )
    return build, ledger, partition


def _build(graph, mode, run):
    build, ledger, partition = _construct(graph, mode, run)
    return {
        "phases": [(p.name, p.rounds, p.messages) for p in ledger.phases()],
        "iterations": build.iterations,
        "block_counts": build.block_counts,
        "quality": build.quality(),
        "edges_per_part": [
            len(edges_of_part(build.shortcut, pid))
            for pid in range(partition.num_parts)
        ],
        "up_parts_sha": hashlib.sha256(repr(
            [sorted(parts) for parts in build.shortcut.up_parts]
        ).encode()).hexdigest()[:16],
    }


EXPECTED = {('grid', 'randomized', 'default'): {'phases': [('corefast_claim_1',
                                                            10,
                                                            126),
                                                           ('annotate_blocks',
                                                            16,
                                                            126),
                                                           ('verify_1_wave', 48, 254),
                                                           ('verify_1_reverse',
                                                            48,
                                                            254),
                                                           ('verify_1_replay',
                                                            45,
                                                            148)],
                                                'iterations': 1,
                                                'block_counts': [1, 1, 1, 0],
                                                'quality': (1, 3),
                                                'edges_per_part': [29, 51, 46, 0],
                                                'up_parts_sha': 'b021276c1f03e863'},
 ('grid', 'randomized', 'doubling'): {'phases': [('corefast_claim_1', 10, 124),
                                                 ('annotate_blocks', 15, 124),
                                                 ('verify_1_wave', 34, 255),
                                                 ('verify_1_reverse', 32, 255),
                                                 ('verify_1_replay', 30, 148),
                                                 ('corefast_claim_2', 10, 97),
                                                 ('annotate_blocks', 16, 126),
                                                 ('verify_2_wave', 48, 254),
                                                 ('verify_2_reverse', 48, 254),
                                                 ('verify_2_replay', 45, 148)],
                                      'iterations': 2,
                                      'block_counts': [1, 1, 1, 0],
                                      'quality': (1, 3),
                                      'edges_per_part': [29, 51, 46, 0],
                                      'up_parts_sha': 'b021276c1f03e863'},
 ('grid', 'randomized', 'capped'): {'phases': [('corefast_claim_1', 10, 124),
                                               ('annotate_blocks', 15, 124),
                                               ('verify_1_wave', 34, 255),
                                               ('verify_1_reverse', 32, 255),
                                               ('verify_1_replay', 30, 148),
                                               ('corefast_claim_2', 10, 126),
                                               ('annotate_blocks', 16, 126),
                                               ('verify_2_wave', 48, 254),
                                               ('verify_2_reverse', 48, 254),
                                               ('verify_2_replay', 45, 148)],
                                    'iterations': 2,
                                    'block_counts': [1, 1, 1, 0],
                                    'quality': (1, 3),
                                    'edges_per_part': [29, 51, 46, 0],
                                    'up_parts_sha': 'b021276c1f03e863'},
 ('grid', 'deterministic', 'default'): {'phases': [('heavy_sizes', 11, 99),
                                                   ('heavy_notify', 1, 99),
                                                   ('heavy_lrank', 11, 99),
                                                   ('heavy_chain_scan', 20,
                                                    164),
                                                   ('alg8_1_rank0_doubling',
                                                    24, 0),
                                                   ('alg8_1_rank0_cross', 2,
                                                    2),
                                                   ('alg8_1_rank1_doubling',
                                                    37, 6),
                                                   ('alg8_1_rank1_cross', 3,
                                                    3),
                                                   ('alg8_1_rank2_doubling',
                                                    37, 0),
                                                   ('alg8_1_rank2_cross', 0,
                                                    0),
                                                   ('annotate_blocks', 8, 11),
                                                   ('det_verify_1_wave', 13,
                                                    155),
                                                   ('det_verify_1_reverse', 13,
                                                    155),
                                                   ('det_verify_1_replay', 13,
                                                    103)],
                                        'iterations': 1,
                                        'block_counts': [1, 1, 1, 0],
                                        'quality': (1, 2),
                                        'edges_per_part': [3, 2, 6, 0],
                                        'up_parts_sha': '0ef5cfea01d226a0'},
 ('grid', 'deterministic', 'doubling'): {'phases': [('heavy_sizes', 11, 99),
                                                    ('heavy_notify', 1, 99),
                                                    ('heavy_lrank', 11, 99),
                                                    ('heavy_chain_scan', 20,
                                                     164),
                                                    ('alg8_1_rank0_doubling',
                                                     18, 0),
                                                    ('alg8_1_rank0_cross', 2,
                                                     2),
                                                    ('alg8_1_rank1_doubling',
                                                     29, 6),
                                                    ('alg8_1_rank1_cross', 3,
                                                     3),
                                                    ('alg8_1_rank2_doubling',
                                                     29, 0),
                                                    ('alg8_1_rank2_cross', 0,
                                                     0),
                                                    ('annotate_blocks', 8, 11),
                                                    ('det_verify_1_wave', 13,
                                                     155),
                                                    ('det_verify_1_reverse',
                                                     13, 155),
                                                    ('det_verify_1_replay', 13,
                                                     103)],
                                         'iterations': 1,
                                         'block_counts': [1, 1, 1, 0],
                                         'quality': (1, 2),
                                         'edges_per_part': [3, 2, 6, 0],
                                         'up_parts_sha': '0ef5cfea01d226a0'},
 ('grid', 'deterministic', 'capped'): {'phases': [('heavy_sizes', 11, 99),
                                                  ('heavy_notify', 1, 99),
                                                  ('heavy_lrank', 11, 99),
                                                  ('heavy_chain_scan', 20,
                                                   164),
                                                  ('alg8_1_rank0_doubling', 18,
                                                   0),
                                                  ('alg8_1_rank0_cross', 2, 2),
                                                  ('alg8_1_rank1_doubling', 29,
                                                   6),
                                                  ('alg8_1_rank1_cross', 3, 3),
                                                  ('alg8_1_rank2_doubling', 29,
                                                   0),
                                                  ('alg8_1_rank2_cross', 0, 0),
                                                  ('annotate_blocks', 8, 11),
                                                  ('det_verify_1_wave', 13,
                                                   155),
                                                  ('det_verify_1_reverse', 13,
                                                   155),
                                                  ('det_verify_1_replay', 13,
                                                   103),
                                                  ('alg8_2_rank0_doubling', 24,
                                                   0),
                                                  ('alg8_2_rank0_cross', 2, 2),
                                                  ('alg8_2_rank1_doubling', 37,
                                                   6),
                                                  ('alg8_2_rank1_cross', 3, 3),
                                                  ('alg8_2_rank2_doubling', 37,
                                                   0),
                                                  ('alg8_2_rank2_cross', 0, 0),
                                                  ('annotate_blocks', 8, 11),
                                                  ('det_verify_2_wave', 13,
                                                   155),
                                                  ('det_verify_2_reverse', 13,
                                                   155),
                                                  ('det_verify_2_replay', 13,
                                                   103)],
                                       'iterations': 2,
                                       'block_counts': [1, 1, 1, 0],
                                       'quality': (1, 2),
                                       'edges_per_part': [3, 2, 6, 0],
                                       'up_parts_sha': '0ef5cfea01d226a0'},
 ('regular', 'randomized', 'default'): {'phases': [('corefast_claim_1', 6, 142),
                                                   ('annotate_blocks', 8, 142),
                                                   ('verify_1_wave', 36, 277),
                                                   ('verify_1_reverse',
                                                    36,
                                                    277),
                                                   ('verify_1_replay',
                                                    36,
                                                    148)],
                                        'iterations': 1,
                                        'block_counts': [1, 1, 1, 1, 0],
                                        'quality': (1, 4),
                                        'edges_per_part': [42, 37, 41, 22, 0],
                                        'up_parts_sha': '5446d68a5b226359'},
 ('regular', 'randomized', 'doubling'): {'phases': [('corefast_claim_1',
                                                     4,
                                                     123),
                                                    ('annotate_blocks', 6, 123),
                                                    ('verify_1_wave', 18, 254),
                                                    ('verify_1_reverse',
                                                     18,
                                                     254),
                                                    ('verify_1_replay',
                                                     18,
                                                     142),
                                                    ('corefast_claim_2',
                                                     6,
                                                     120),
                                                    ('annotate_blocks', 8, 142),
                                                    ('verify_2_wave', 36, 277),
                                                    ('verify_2_reverse',
                                                     36,
                                                     277),
                                                    ('verify_2_replay',
                                                     36,
                                                     148)],
                                         'iterations': 2,
                                         'block_counts': [1, 1, 1, 1, 0],
                                         'quality': (1, 4),
                                         'edges_per_part': [42, 37, 41, 22, 0],
                                         'up_parts_sha': '5446d68a5b226359'},
 ('regular', 'randomized', 'capped'): {'phases': [('corefast_claim_1', 4, 123),
                                                  ('annotate_blocks', 6, 123),
                                                  ('verify_1_wave', 18, 254),
                                                  ('verify_1_reverse', 18, 254),
                                                  ('verify_1_replay', 18, 142),
                                                  ('corefast_claim_2', 6, 142),
                                                  ('annotate_blocks', 8, 142),
                                                  ('verify_2_wave', 36, 277),
                                                  ('verify_2_reverse', 36, 277),
                                                  ('verify_2_replay', 36, 148)],
                                       'iterations': 2,
                                       'block_counts': [1, 1, 1, 1, 0],
                                       'quality': (1, 4),
                                       'edges_per_part': [42, 37, 41, 22, 0],
                                       'up_parts_sha': '5446d68a5b226359'},
 ('regular', 'deterministic', 'default'): {'phases': [('heavy_sizes', 5, 95),
                                                      ('heavy_notify', 1, 95),
                                                      ('heavy_lrank', 5, 95),
                                                      ('heavy_chain_scan', 8,
                                                       96),
                                                      ('alg8_1_rank0_doubling',
                                                       15, 1),
                                                      ('alg8_1_rank0_cross', 2,
                                                       3),
                                                      ('alg8_1_rank1_doubling',
                                                       15, 4),
                                                      ('alg8_1_rank1_cross', 3,
                                                       3),
                                                      ('alg8_1_rank2_doubling',
                                                       24, 6),
                                                      ('alg8_1_rank2_cross', 3,
                                                       3),
                                                      ('alg8_1_rank3_doubling',
                                                       24, 3),
                                                      ('alg8_1_rank3_cross', 0,
                                                       0),
                                                      ('annotate_blocks', 7,
                                                       23),
                                                      ('det_verify_1_wave', 13,
                                                       132),
                                                      ('det_verify_1_reverse',
                                                       9, 132),
                                                      ('det_verify_1_replay',
                                                       9, 99)],
                                           'iterations': 1,
                                           'block_counts': [1, 1, 1, 1, 0],
                                           'quality': (1, 2),
                                           'edges_per_part': [7, 8, 4, 4, 0],
                                           'up_parts_sha': '26595a142e29bf1d'},
 ('regular', 'deterministic', 'doubling'): {'phases': [('heavy_sizes', 5, 95),
                                                       ('heavy_notify', 1, 95),
                                                       ('heavy_lrank', 5, 95),
                                                       ('heavy_chain_scan', 8,
                                                        96),
                                                       ('alg8_1_rank0_doubling',
                                                        11, 1),
                                                       ('alg8_1_rank0_cross',
                                                        2, 3),
                                                       ('alg8_1_rank1_doubling',
                                                        11, 4),
                                                       ('alg8_1_rank1_cross',
                                                        3, 3),
                                                       ('alg8_1_rank2_doubling',
                                                        18, 6),
                                                       ('alg8_1_rank2_cross',
                                                        3, 3),
                                                       ('alg8_1_rank3_doubling',
                                                        18, 1),
                                                       ('alg8_1_rank3_cross',
                                                        0, 0),
                                                       ('annotate_blocks', 6,
                                                        21),
                                                       ('det_verify_1_wave',
                                                        9, 126),
                                                       ('det_verify_1_reverse',
                                                        9, 126),
                                                       ('det_verify_1_replay',
                                                        9, 98),
                                                       ('alg8_2_rank0_doubling',
                                                        15, 0),
                                                       ('alg8_2_rank0_cross',
                                                        2, 2),
                                                       ('alg8_2_rank1_doubling',
                                                        15, 0),
                                                       ('alg8_2_rank1_cross',
                                                        2, 1),
                                                       ('alg8_2_rank2_doubling',
                                                        24, 2),
                                                       ('alg8_2_rank2_cross',
                                                        2, 1),
                                                       ('alg8_2_rank3_doubling',
                                                        24, 1),
                                                       ('alg8_2_rank3_cross',
                                                        0, 0),
                                                       ('annotate_blocks', 6,
                                                        22),
                                                       ('det_verify_2_wave',
                                                        13, 131),
                                                       ('det_verify_2_reverse',
                                                        9, 131),
                                                       ('det_verify_2_replay',
                                                        9, 98)],
                                            'iterations': 2,
                                            'block_counts': [1, 1, 1, 1, 0],
                                            'quality': (1, 2),
                                            'edges_per_part': [7, 7, 4, 4, 0],
                                            'up_parts_sha': '4e32ae073660d266'},
 ('regular', 'deterministic', 'capped'): {'phases': [('heavy_sizes', 5, 95),
                                                     ('heavy_notify', 1, 95),
                                                     ('heavy_lrank', 5, 95),
                                                     ('heavy_chain_scan', 8,
                                                      96),
                                                     ('alg8_1_rank0_doubling',
                                                      11, 1),
                                                     ('alg8_1_rank0_cross', 2,
                                                      3),
                                                     ('alg8_1_rank1_doubling',
                                                      11, 4),
                                                     ('alg8_1_rank1_cross', 3,
                                                      3),
                                                     ('alg8_1_rank2_doubling',
                                                      18, 6),
                                                     ('alg8_1_rank2_cross', 3,
                                                      3),
                                                     ('alg8_1_rank3_doubling',
                                                      18, 1),
                                                     ('alg8_1_rank3_cross', 0,
                                                      0),
                                                     ('annotate_blocks', 6,
                                                      21),
                                                     ('det_verify_1_wave', 9,
                                                      126),
                                                     ('det_verify_1_reverse',
                                                      9, 126),
                                                     ('det_verify_1_replay',
                                                      9, 98),
                                                     ('alg8_2_rank0_doubling',
                                                      15, 1),
                                                     ('alg8_2_rank0_cross', 2,
                                                      3),
                                                     ('alg8_2_rank1_doubling',
                                                      15, 4),
                                                     ('alg8_2_rank1_cross', 3,
                                                      3),
                                                     ('alg8_2_rank2_doubling',
                                                      24, 6),
                                                     ('alg8_2_rank2_cross', 3,
                                                      3),
                                                     ('alg8_2_rank3_doubling',
                                                      24, 3),
                                                     ('alg8_2_rank3_cross', 0,
                                                      0),
                                                     ('annotate_blocks', 7,
                                                      23),
                                                     ('det_verify_2_wave', 13,
                                                      132),
                                                     ('det_verify_2_reverse',
                                                      9, 132),
                                                     ('det_verify_2_replay',
                                                      9, 99)],
                                          'iterations': 2,
                                          'block_counts': [1, 1, 1, 1, 0],
                                          'quality': (1, 2),
                                          'edges_per_part': [7, 8, 4, 4, 0],
                                          'up_parts_sha': '26595a142e29bf1d'}}


@pytest.mark.parametrize("graph,mode,run", list(EXPECTED))
def test_build_matches_the_pinned_literals(graph, mode, run):
    got = _build(graph, mode, run)
    want = EXPECTED[graph, mode, run]
    assert got["phases"] == want["phases"]
    assert got == want


def test_capped_runs_end_at_the_iteration_cap():
    for (graph, mode, run), want in EXPECTED.items():
        if run == "capped":
            assert want["iterations"] == RUNS[run]["max_iterations"]


@pytest.mark.parametrize("graph,mode,run", list(EXPECTED))
def test_the_last_verified_candidate_is_the_shortcut(
    graph, mode, run, monkeypatch
):
    """One ``annotate_blocks`` per iteration and none after: the loop ends
    with every active part frozen (by its count or by the cap), so what it
    returns is the very candidate — and the very annotations — its last
    iteration verified."""
    annotated = []
    real = corefast.annotate_blocks

    def spy(engine, shortcut, ledger):
        annotations = real(engine, shortcut, ledger)
        annotated.append((shortcut, annotations))
        return annotations

    monkeypatch.setattr(corefast, "annotate_blocks", spy)
    build, ledger, _partition = _construct(graph, mode, run)
    assert build.iterations == len(annotated) >= 1
    assert build.shortcut is annotated[-1][0]
    assert build.annotations is annotated[-1][1]
    assert ledger.phases()[-1].name.endswith("_replay")


def test_a_build_that_never_iterates_still_annotates_its_empty_shortcut():
    """Parts no larger than the diameter never claim: no iteration ran, so
    there is no candidate to return — the empty shortcut is built and
    annotated as before."""
    net, _ball = GRAPHS["grid"]()
    partition = bfs_ball_partition(net, 5, seed=3)
    solver = PASolver(net, seed=6)
    setup = solver.prepare(partition)
    names = [p.name for p in setup.setup_ledger.phases()]
    assert names.count("annotate_blocks") == 1
    assert not any("verify" in name for name in names)
    assert total_shortcut_edges(setup.shortcut) == 0
    assert setup.block_bound == (0,) * partition.num_parts
