"""``repro.obs.explain``: phase families against the paper's envelopes.

The view is judged by the replay property it rests on: the families'
totals are the run's ledger totals to the unit (nothing dropped, nothing
counted twice), the envelopes come from the ``pa.net`` instant the solver
emits, and the setups the solves ran on — with every projection's
"verified" or "implied" — come from the ``session.prepare`` spans.
"""

import math

import pytest

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.congest import PhaseStats
from repro.graphs import random_regular, with_distinct_weights
from repro.obs import (
    Tracer,
    explain,
    phase_family,
    render_explanation,
    summarize,
    use_tracer,
)


@pytest.mark.parametrize("name, family", [
    ("phase21_moecoins_reverse", "moecoins_reverse"),  # a pre-PR 23 trace
    ("phase21_moe_reverse", "moe_reverse"),
    ("verify_2_wave", "verify_wave"),
    ("det_verify_1_replay", "det_verify_replay"),
    ("corefast_claim_3", "corefast_claim"),
    ("alg8_1_rank0_doubling", "alg8_rank_doubling"),
    ("alg9_bc12_replay", "alg9_bc_replay"),
    ("mst_star_pa2_reverse", "mst_star_pa_reverse"),
    ("serve5q_wave", "serve_wave"),
    ("serve5_wave", "serve_wave"),
    ("attempt0:phase1_relabel_replay", "relabel_replay"),
    ("attempt1:reelect2:alg9_pick_wave", "alg9_pick_wave"),
    ("recovery:heartbeat", "recovery:heartbeat"),
    ("coarsen_boundary_exchange", "coarsen_boundary_exchange"),
    ("annotate_blocks", "annotate_blocks"),
])
def test_phase_family_strips_loop_counters_only(name, family):
    assert phase_family(name) == family


@pytest.fixture(scope="module")
def mst_trace():
    net = with_distinct_weights(random_regular(64, 4, seed=3), seed=4)
    tracer = Tracer()
    with use_tracer(tracer):
        session = PASession(net, seed=3, reuse=True, batch=True)
        result = minimum_spanning_tree(net, seed=3, session=session)
    return net, session, result, tracer


def test_families_replay_the_ledger_exactly(mst_trace):
    net, session, result, tracer = mst_trace
    exp = explain(tracer.events)
    assert (exp.rounds, exp.messages) == (result.rounds, result.messages)
    assert sum(t.rounds for t in exp.families.values()) == result.rounds
    assert sum(t.messages for t in exp.families.values()) == result.messages
    assert sum(t.count for t in exp.families.values()) == len(
        tracer.ledger_events("main")
    )
    # every merging-loop phase number folded away
    assert not any("phase" in name for name in exp.families)
    assert exp.families["moe_reverse"].count > 1
    assert exp.families["mst_seed"].count == 1
    assert exp.families["mst_target_exchange"].count == result.meta["phases"]


def test_envelopes_come_from_the_pa_net_instant(mst_trace):
    net, session, _result, tracer = mst_trace
    exp = explain(tracer.events)
    depth = session.solver.tree_result.depth
    assert (exp.n, exp.m, exp.depth) == (net.n, net.m, depth)
    assert exp.round_envelope == depth + math.ceil(math.sqrt(net.n))
    text = render_explanation(exp)
    assert f"net: n={net.n} m={net.m} tree depth={depth}" in text
    owner, totals = exp.owner("rounds")
    assert totals.rounds == max(t.rounds for t in exp.families.values())
    assert (
        f"round slack {exp.rounds / exp.round_envelope:.2f}: owned by {owner}"
    ) in text
    assert f"message slack {exp.messages / net.m:.2f}: owned by" in text


def test_setups_and_projections_come_from_the_prepare_spans(mst_trace):
    _net, session, _result, tracer = mst_trace
    exp = explain(tracer.events)
    stats = session.stats
    assert len(exp.prepares) == stats.prepares + stats.coarsenings
    projections = [a for a in exp.prepares if a["outcome"] != "full"]
    # a singleton-start Boruvka never claims a shortcut edge: every bound
    # is zero, so every coarsening is implied
    assert stats.implied == stats.coarsenings > 0
    assert {a["verified"] for a in projections} == {"implied"}
    assert all(
        "verified" not in a for a in exp.prepares if a["outcome"] == "full"
    )
    for args in exp.prepares:
        assert (args["bound"], args["b"], args["c"]) == (0, 1, 1)
        assert args["subparts"] == 64
    text = render_explanation(exp)
    assert f"projections: 0 verified, {stats.coarsenings} implied" in text
    summary = summarize(tracer.events)
    assert (summary.projections_verified, summary.projections_implied) == (
        0, stats.coarsenings,
    )


def test_merge_rounds_come_from_the_merge_round_instants(mst_trace):
    net, _session, result, tracer = mst_trace
    exp = explain(tracer.events)
    rounds = exp.merge_rounds
    assert [args["round"] for args in rounds] == list(
        range(1, result.meta["phases"] + 1)
    )
    assert {args["loop"] for args in rounds} == {"mst"}
    # a connected graph: every fragment picks, the fragments left are the
    # ones that did not join, and the last round joins all but one
    assert rounds[0]["clusters"] == rounds[0]["picks"] == net.n
    for before, after in zip(rounds, rounds[1:]):
        assert after["clusters"] == before["clusters"] - before["joins"]
        assert before["picks"] == before["clusters"]
    assert rounds[-1]["clusters"] - rounds[-1]["joins"] == 1
    shares = [args["joins"] / args["picks"] for args in rounds]
    assert len(rounds) <= 2 * math.ceil(math.log2(net.n))
    assert (
        f"merge rounds: {len(rounds)} for ceil(log2 n) = 6; joined share "
        f"min {min(shares):.2f} / mean {sum(shares) / len(shares):.2f}"
    ) in render_explanation(exp)


def test_a_trace_without_a_solver_has_no_envelopes():
    tracer = Tracer()
    tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10))
    tracer.ledger("async_overhead", PhaseStats("wave", rounds=9, messages=90))
    exp = explain(tracer.events)
    assert (exp.rounds, exp.messages) == (3, 10)  # main stream only
    assert exp.round_envelope is None
    assert "no pa.net instant" in render_explanation(exp)
