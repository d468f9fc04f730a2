"""The schedule fuzzer: differential checks pass, failures shrink & replay.

This is the tier-1 slice of the fuzzing harness: a handful of seeded
cases run on every test invocation (the CI fuzz job runs 25 more), plus
direct tests of the machinery itself — case derivation is pure, the
shrinker minimizes against an injected failure predicate, and the CLI
replays a seed pair verbatim.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.fuzz import case_for_index, fuzz, run_case, shrink_case
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.harness import DELAYED_KINDS, FuzzCase, build_network, schedules_for


def test_fuzz_slice_passes():
    report = fuzz(runs=6, base_seed=20260726, max_n=26, log=None)
    assert report.ok, [f.as_dict() for f in report.failures]


def test_case_derivation_is_pure_and_varied():
    cases = [case_for_index(7, i) for i in range(9)]
    again = [case_for_index(7, i) for i in range(9)]
    assert cases == again
    assert {c.algorithm for c in cases} == {"pa", "mst", "components"}
    assert len({(c.graph_seed, c.schedule_seed) for c in cases}) == 9
    assert all(8 <= c.n <= 36 for c in cases)


def test_networks_and_schedules_replay_from_seeds():
    case = case_for_index(3, 5)
    net_a, net_b = build_network(case), build_network(case)
    assert net_a.n == net_b.n and list(net_a.edges) == list(net_b.edges)
    assert [s.name for s in schedules_for(case)] == [
        s.name for s in schedules_for(case)
    ]
    assert len(schedules_for(case)) == len(DELAYED_KINDS)


def test_run_case_detects_an_injected_divergence(monkeypatch):
    # The async engine runs the synchronous execution, so a broken
    # synchronizer moves no output and no main ledger: the check that
    # holds it is the differential one against the event engine kept
    # beside the tests.  Drop the transform's horizon release (a safe
    # wave waits for the first trigger of a later pulse) and that check
    # must notice on the case's own inputs under its FIFO schedule.
    from event_engine import first_divergence
    from repro.congest import async_engine as ae
    from repro.core import SUM, PASolver, solve_pa
    from repro.graphs import random_connected_partition

    case = case_for_index(1, 0)
    assert run_case(case) is None
    net = build_network(case)
    partition = random_connected_partition(
        net, max(2, min(6, net.n // 5)), seed=case.graph_seed
    )
    values = [(v * 7 + 3) % 101 for v in range(net.n)]

    def workload(engine):
        solver = PASolver(net, mode=case.mode, seed=7, engine=engine)
        res = solve_pa(
            net, partition, values, SUM, mode=case.mode, seed=7, solver=solver
        )
        return res.aggregates, res.rounds, res.messages

    def fifo():
        return schedules_for(replace(case, schedule_kinds=("fifo",)))[0]

    assert first_divergence(workload, net, fifo) is None
    monkeypatch.setattr(ae._Alpha, "_release", lambda self, p: 0)
    message = first_divergence(workload, net, fifo)
    assert message is not None and message.startswith("overhead record")


def test_engine_axis_detects_an_injected_array_divergence(monkeypatch):
    # Corrupt the array engine's metering (one extra message per phase)
    # and the kernels-vs-twins check on the harness's cases
    # (``test_engine_parity.py``) must notice: same outputs, and a phase
    # log whose first differing phase is one message over its twin's.
    from repro.congest import arrays
    from test_engine_parity import both_ways

    case = case_for_index(2, 0)
    assert run_case(case) is None
    kernels, twins = both_ways(case)
    assert kernels == twins

    original = arrays.run_array_phase

    def inflated(engine, program, *args, **kwargs):
        stats = original(engine, program, *args, **kwargs)
        return replace(stats, messages=stats.messages + 1)

    monkeypatch.setattr(arrays, "run_array_phase", inflated)
    kernels, twins = both_ways(case)
    assert kernels[0] == twins[0]
    assert kernels[1] != twins[1]
    ours, theirs = next(
        pair for pair in zip(kernels[1], twins[1]) if pair[0] != pair[1]
    )
    assert ours[0] == theirs[0] and ours[2] == theirs[2] + 1


def test_shrinker_minimizes_and_isolates_schedule():
    base = FuzzCase(graph_seed=11, schedule_seed=13, n=32)

    def check(case):
        # Synthetic failure: only graphs of size >= 14 under the
        # slow-edge schedule "fail".
        if case.n >= 14 and "slow-edge" in case.schedule_kinds:
            return "synthetic failure"
        return None

    shrunk, message = shrink_case(base, check=check)
    assert message == "synthetic failure"
    assert shrunk.schedule_kinds == ("slow-edge",)
    assert 14 <= shrunk.n <= 16  # close to minimal, never below failing
    assert (shrunk.graph_seed, shrunk.schedule_seed) == (11, 13)
    assert "--replay 11:13" in shrunk.replay_command()
    with pytest.raises(ValueError):
        shrink_case(base, check=lambda case: None)


def test_cli_replay_roundtrip(tmp_path, capsys):
    case = case_for_index(5, 0, max_n=18)
    rc = fuzz_main([
        "--replay", f"{case.graph_seed}:{case.schedule_seed}",
        "--n", str(case.n), "--algorithm", case.algorithm,
        "--mode", case.mode, "--graph", case.graph_kind,
    ])
    assert rc == 0
    assert "replay passed" in capsys.readouterr().out


def test_cli_writes_failure_artifact(tmp_path, monkeypatch, capsys):
    # Force every case to fail fast so the CLI artifact path is covered.
    from repro.fuzz import harness

    failing = replace(
        case_for_index(0, 0), schedule_kinds=("random",)
    )
    monkeypatch.setattr(
        "repro.fuzz.__main__.fuzz",
        lambda **kw: harness.FuzzReport(
            runs=1,
            failures=[harness.FuzzFailure(case=failing, message="boom")],
        ),
    )
    out = tmp_path / "failures.json"
    rc = fuzz_main(["--runs", "1", "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload[0]["message"] == "boom"
    assert payload[0]["replay"].startswith("python -m repro.fuzz --replay")
