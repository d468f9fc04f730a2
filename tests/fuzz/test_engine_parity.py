"""The kernels against their scalar twins, end to end, on the fuzz cases.

Every phase runs its array kernel unless the kernel declines the payload
or the engine holds a fault plan; then its scalar twin runs
(``treeops._kernel``).  ``oracles.TwinEngine`` runs every phase on its
twin.  A case drawn by the fuzz harness (:func:`repro.fuzz.case_for_index`)
runs its workload on both engines, which must agree in outputs and in
every phase's (name, rounds, messages, ticks, bits).  The draw covers PA
with every aggregation of :data:`~repro.fuzz.harness.PA_AGGS`, MST with
and without reuse under both merging rules, and components, in both
modes; one deterministic PA case of 160 nodes grows multi-level sub-part
forests, so the broadcast / convergecast / cross-round kernels run their
level schedules.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.mst import RANK, STAR
from repro.core.pa import DETERMINISTIC
from repro.fuzz import case_for_index
from repro.fuzz.harness import (
    ALGORITHMS,
    PA_AGGS,
    _engine,
    _inputs,
    _phase_log,
    _run_workload,
)

from oracles import TwinEngine

#: (algorithm, FuzzCase fields) of every workload shape a case can draw.
SHAPES = (
    [("pa", {"pa_agg": agg}) for agg in PA_AGGS]
    + [
        ("mst", {"reuse": reuse, "merging": merging})
        for reuse in (False, True) for merging in (RANK, STAR)
    ]
    + [("components", {})]
)


def both_ways(case):
    """``case`` on the kernels and on the twins: two (outputs, phase log)."""
    net, partition, values = _inputs(case)
    kernels = _engine(case, net)
    runs = []
    for engine in (kernels, TwinEngine(net, **kernels.flags)):
        out, ledger = _run_workload(case, net, partition, values, engine)
        runs.append((out, _phase_log(ledger)))
    return runs


@pytest.mark.parametrize(
    "algorithm,shape", SHAPES,
    ids=[f"{a}-{'-'.join(map(str, s.values())) or 'plain'}" for a, s in SHAPES],
)
@given(seed=st.integers(0, 2**30))
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernels_match_their_twins(algorithm, shape, seed):
    case = replace(case_for_index(seed, ALGORITHMS.index(algorithm)), **shape)
    kernels, twins = both_ways(case)
    assert kernels == twins, case.replay_command()


def test_a_multi_level_sub_part_forest_matches_its_twins():
    case = replace(case_for_index(0, 0), n=160, mode=DETERMINISTIC)
    kernels, twins = both_ways(case)
    assert kernels == twins
    # Algorithm 6 ran a second star-joining iteration: sub-part trees
    # more than one level deep.
    assert any("det_star_2_" in name for name, *_ in twins[1])
