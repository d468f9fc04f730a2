"""EngineProfile coverage and parity across the three engine cores.

All three engines fill the same :class:`~repro.congest.ledger.EngineProfile`
fields (ticks / peak_in_flight / activations / idle_ticks); under a
synchronous (delay-0) schedule the async engine's profile must equal the
scalar engine's, and the array engine's must equal it always — the
profile is part of the bit-for-bit parity surface, not just the ledger.
"""

import pytest

from repro import PASession
from repro.congest import SynchronousSchedule
from repro.core import SUM
from repro.core.pa import PASolver
from repro.graphs import bfs_ball_partition, grid_2d

ENGINES = [
    ("scalar", {"engine_impl": "scalar"}),
    ("array", {"engine_impl": "array"}),
    ("async", {"schedule": SynchronousSchedule()}),
]


@pytest.fixture(scope="module")
def workload():
    net = grid_2d(6, 6)
    partition = bfs_ball_partition(net, target_size=9, seed=3)
    values = [(v * 5 + 1) % 31 for v in range(net.n)]
    return net, partition, values


def _profiled_phases(workload, profile=True, **kwargs):
    net, partition, values = workload
    solver = PASolver(net, seed=7, profile=profile, **kwargs)
    setup = solver.prepare(partition)
    res = solver.solve(setup, values, SUM)
    res.ledger.merge(solver.tree_ledger, prefix="tree:")
    return res, [(p.name, p.profile) for p in res.ledger.phases()]


@pytest.mark.parametrize("label,kwargs", ENGINES, ids=[e[0] for e in ENGINES])
def test_profile_attached_to_every_engine_phase(workload, label, kwargs):
    res, phases = _profiled_phases(workload, **kwargs)
    assert phases, "no phases charged"
    for name, profile in phases:
        assert profile is not None, f"phase {name} has no profile"
        assert profile.ticks >= 0
        assert profile.activations >= 0
    # zero-tick structural phases carry all-zero profiles; the engine-run
    # phases must show real activity
    assert any(p.activations > 0 for _, p in phases)


@pytest.mark.parametrize("label,kwargs", ENGINES, ids=[e[0] for e in ENGINES])
def test_profile_off_by_default(workload, label, kwargs):
    res, phases = _profiled_phases(workload, profile=False, **kwargs)
    assert all(profile is None for _, profile in phases)


def test_profiles_identical_across_engines(workload):
    """Scalar, array and delay-0 async produce the same profiles."""
    results = {
        label: _profiled_phases(workload, **kwargs)
        for label, kwargs in ENGINES
    }
    scalar_res, scalar_phases = results["scalar"]
    for label in ("array", "async"):
        res, phases = results[label]
        assert (res.rounds, res.messages) == (
            scalar_res.rounds, scalar_res.messages,
        )
        assert phases == scalar_phases, f"{label} profile diverges from scalar"


def test_profile_never_perturbs_the_ledger(workload):
    """Profiling is observational: same phase log with it on or off."""

    def log(profile):
        res, _ = _profiled_phases(workload, profile=profile)
        return [
            (p.name, p.rounds, p.messages, p.ticks, p.bits)
            for p in res.ledger.phases()
        ]

    assert log(True) == log(False)


def test_session_plumbs_profile_to_its_solver(workload):
    net, partition, values = workload
    session = PASession(net, solver=PASolver(net, seed=7, profile=True))
    setup = session.prepare(partition)
    res = session.solve(setup, values, SUM)
    assert session.solver.engine.profile is True
    assert any(p.profile is not None for p in res.ledger.phases())

    plain = PASession(net, seed=7)
    assert plain.solver.engine.profile is False
