"""The fuzzer's fault axis: derivation, recovery checks, triple shrinking."""

import pytest

from repro.fuzz import case_for_index, fault_plan_for, run_case, shrink_case
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.harness import FAULT_KINDS, FuzzCase, FuzzFailure


def test_case_derivation_draws_the_fault_axis():
    cases = [case_for_index(11, i) for i in range(24)]
    again = [case_for_index(11, i) for i in range(24)]
    assert cases == again  # fault_seed/fault_kinds are pure draws too
    with_faults = [c for c in cases if c.fault_kinds]
    assert with_faults  # the axis actually fires
    assert all(c.algorithm in ("pa", "mst") for c in with_faults)
    assert all(k in FAULT_KINDS for c in with_faults for k in c.fault_kinds)
    assert len({c.fault_seed for c in cases}) > 20


def test_fault_plan_for_is_pure_and_recoverable():
    case = FuzzCase(graph_seed=1, schedule_seed=2, fault_seed=77,
                    fault_kinds=("crash-loss",))
    plan_a = fault_plan_for(case, 20)
    plan_b = fault_plan_for(case, 20)
    assert plan_a == plan_b
    assert plan_a.crashes and plan_a.losses
    assert plan_a.clear_after is not None  # always recoverable
    assert fault_plan_for(FuzzCase(graph_seed=1, schedule_seed=2), 20) is None
    loss_only = fault_plan_for(
        FuzzCase(graph_seed=1, schedule_seed=2, fault_seed=5,
                 fault_kinds=("loss",)), 20,
    )
    assert not loss_only.crashes and loss_only.losses


def test_fault_case_passes_end_to_end():
    case = FuzzCase(
        graph_seed=32571731, schedule_seed=532557382, fault_seed=427484391,
        n=12, algorithm="pa", graph_kind="random",
        schedule_kinds=(), fault_kinds=("crash",),
    )
    assert run_case(case) is None


def test_shrinker_pins_a_fault_only_failure_to_the_triple():
    base = FuzzCase(graph_seed=5, schedule_seed=6, fault_seed=7, n=30,
                    fault_kinds=("crash",))

    def check(case):
        return "fault-only failure" if case.fault_kinds else None

    shrunk, message = shrink_case(base, check=check)
    assert message == "fault-only failure"
    assert shrunk.fault_kinds == ("crash",)  # the guilty axis survives
    assert shrunk.schedule_kinds == ()  # innocents stripped
    replay = shrunk.replay_command()
    assert "--replay 5:6:7" in replay
    assert "--faults crash" in replay


def test_shrinker_drops_an_innocent_fault_axis():
    base = FuzzCase(graph_seed=5, schedule_seed=6, fault_seed=7, n=30,
                    fault_kinds=("loss",))

    def check(case):
        # Fails with or without faults: the fault axis is innocent.
        return "always" if "slow-edge" in case.schedule_kinds else None

    shrunk, message = shrink_case(base, check=check)
    assert shrunk.fault_kinds == ()
    assert shrunk.schedule_kinds == ("slow-edge",)


def test_failure_dict_and_replay_carry_the_triple():
    case = FuzzCase(graph_seed=9, schedule_seed=8, fault_seed=123,
                    fault_kinds=("crash-loss",))
    payload = FuzzFailure(case=case, message="boom").as_dict()
    assert payload["fault_seed"] == 123
    assert payload["fault_kinds"] == ["crash-loss"]
    assert "--replay 9:8:123" in payload["replay"]


def test_cli_replays_a_fault_triple(capsys):
    rc = fuzz_main([
        "--replay", "32571731:532557382:427484391",
        "--n", "12", "--algorithm", "pa", "--graph", "random",
        "--schedules", "", "--faults", "crash",
    ])
    assert rc == 0
    assert "replay passed" in capsys.readouterr().out


def test_cli_rejects_unknown_fault_kind():
    with pytest.raises(SystemExit):
        fuzz_main(["--runs", "1", "--faults", "bogus"])


def test_cli_rejects_malformed_replay_triple():
    with pytest.raises(SystemExit):
        fuzz_main(["--replay", "1:2:3:4"])
