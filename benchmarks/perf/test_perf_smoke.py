"""Smoke test of the performance benchmark (collected by the tier-1 run).

Runs every workload in-process at its reduced ``SMOKE`` size: no child
processes besides ``pa_sharded``'s two workers, a measuring time of zero
(so each loop makes its minimum number of ops), and the same
``run_child`` / ``combine`` path the command line takes.  The reference
loop that follows every op is cut to a hundredth: the test is about
names, counts and checks, and eighty full loops would triple it.
"""

import importlib
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import perf_harness as ph  # noqa: E402
import perf_report  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: The part of each workload's inputs that ``--seed`` draws.
SEEDED_INPUT = {
    "pa_grid": lambda s: s.values,
    "pa_expander": lambda s: s.values,
    "pa_det": lambda s: s.values,
    "pa_async": lambda s: s.values,
    "mst_reuse": lambda s: s.net.weights,
    "service_churn": lambda s: s.waves[0][0][1].values,
    "pa_sharded": lambda s: s.values,
}


@pytest.fixture(scope="module", autouse=True)
def short_reference_loop():
    real = ph.reference_loop
    ph.reference_loop = lambda: real(8_000)
    yield real
    ph.reference_loop = real


def module(name):
    return importlib.import_module(f"wl_{name}")


def smoke_run(name, seed, trace):
    wl = module(name)
    record = ph.run_child(
        wl, seed, 0.0, trace, time.time(), min_ops=2, size=wl.SMOKE,
    )
    return record, perf_report.combine(SPEC, [record], trace)


@pytest.fixture(scope="module")
def traced_results():
    return {name: smoke_run(name, 1, True) for name in WORKLOADS}


def test_reference_loop_times_itself(short_reference_loop):
    assert 0.0 < short_reference_loop() < 10 * perf_report.REFERENCE_LOOP_S


def test_declared_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [p for p in SPEC["paths"] if (HERE.parents[1] / p) == HERE]
    assert {f.stem[3:] for f in HERE.glob("wl_*.py")} >= set(WORKLOADS)


def test_every_workload_passes_its_checks_and_emits_declared_metrics(traced_results):
    declared = {m["name"] for m in SPEC["per_layer"]}
    provided = set()
    for name, (_record, result) in traced_results.items():
        assert result["correct"], (name, result["detail"]["failures"])
        assert result["metrics"]["fail_share"]["value"] == 0
        assert set(result["metrics"]) == declared
        # Benchmark-side spans must account for the traced op.
        assert result["detail"]["span_coverage"] >= 0.95, name
        provided |= set(result["detail"]["provided"])
    # Every declared per-layer metric is measured by some workload.
    assert provided == declared


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_for_a_seed_and_inputs_differ_for_another(name, traced_results):
    traced_record, _ = traced_results[name]
    record, result = smoke_run(name, 1, False)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(e["value"] > 0 for e in result["metrics"].values())
    # The traced and the untraced pass of one seed meter the same ledger.
    for key in ("signature", "rounds", "messages", "n", "m", "ecc0"):
        assert record[key] == traced_record[key], key
    assert len(record["signature"]) == 1

    wl = module(name)
    pick = SEEDED_INPUT[name]
    one, again, other = (wl.build(s, wl.SMOKE) for s in (1, 1, 2))
    try:
        assert pick(one) == pick(again)
        assert pick(one) != pick(other)
    finally:
        for state in (one, again, other):
            ph.teardown(wl, state)


def _corrupt_pa_grid(state):
    state.expected[0][0] += 1


def _corrupt_mst(state):
    state.expected = frozenset(list(state.expected)[1:])


@pytest.mark.parametrize(
    "name, corrupt", [("pa_grid", _corrupt_pa_grid), ("mst_reuse", _corrupt_mst)]
)
def test_a_wrong_expected_answer_is_a_failed_op_and_a_nonzero_exit(name, corrupt):
    wl = module(name)
    state = wl.build(1, wl.SMOKE)
    corrupt(state)
    got = ph.measure(wl, state, 0.0, min_ops=2)
    assert got.attempted == 2 and len(got.failures) == 2
    record, result = smoke_run(name, 1, False)
    assert perf_report.exit_code({name: result}) == 0
    record["failures"] = got.failures
    broken = perf_report.combine(SPEC, [record], False)
    assert not broken["correct"] and broken["failed"] == 2
    assert perf_report.exit_code({name: broken}) == 1
