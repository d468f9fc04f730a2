"""The headless benchmark runner: discovery, execution, reports."""

from __future__ import annotations

import json
import textwrap

from repro.bench import Table, drain_tables, print_table
from repro.bench.runner import (
    bench_functions,
    discover_bench_files,
    load_bench_module,
    main,
    render_experiments_md,
    results_to_json,
    run_all,
)

GOOD_BENCH = '''
from repro.bench import print_table, record


def test_tiny():
    print_table("tiny table", ["k", "v"], [(1, 2), (3, 4)])
    record(rounds=7, messages=5, extra="note")
'''

BAD_BENCH = '''
def test_broken():
    raise RuntimeError("intentional failure")
'''


def _write_bench_dir(tmp_path, files):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    for name, body in files.items():
        (bench_dir / name).write_text(textwrap.dedent(body))
    return bench_dir


def test_print_table_registers_structured_table(capsys):
    drain_tables()
    print_table("a title", ["x", "yy"], [(1, 2)])
    tables = drain_tables()
    assert len(tables) == 1
    table = tables[0]
    assert isinstance(table, Table)
    assert table.title == "a title"
    assert table.rows == [("1", "2")]
    assert "| x | yy |" in table.render_markdown()
    assert drain_tables() == []  # drained


def test_discovery_and_run_all(tmp_path):
    bench_dir = _write_bench_dir(
        tmp_path, {"bench_tiny.py": GOOD_BENCH, "not_a_bench.py": "x = 1\n"}
    )
    files = discover_bench_files(bench_dir)
    assert [f.name for f in files] == ["bench_tiny.py"]

    module = load_bench_module(files[0])
    assert [fn.__name__ for fn in bench_functions(module)] == ["test_tiny"]

    results = run_all(bench_dir)
    assert len(results) == 1
    (res,) = results
    assert res.status == "ok"
    assert res.rounds == 7 and res.messages == 5
    assert res.metrics["extra"] == "note"
    assert [t.title for t in res.tables] == ["tiny table"]


def test_run_all_reports_errors_without_crashing(tmp_path):
    bench_dir = _write_bench_dir(
        tmp_path, {"bench_bad.py": BAD_BENCH, "bench_tiny.py": GOOD_BENCH}
    )
    results = run_all(bench_dir)
    by_name = {r.name: r for r in results}
    assert by_name["test_broken"].status == "error"
    assert "intentional failure" in by_name["test_broken"].error
    assert by_name["test_tiny"].status == "ok"


def test_main_writes_json_and_experiments_md(tmp_path):
    bench_dir = _write_bench_dir(tmp_path, {"bench_tiny.py": GOOD_BENCH})
    out = tmp_path / "BENCH_test.json"
    md = tmp_path / "EXPERIMENTS.md"
    code = main([
        "--bench-dir", str(bench_dir),
        "--out", str(out),
        "--experiments-md", str(md),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-bench/3"
    assert set(report) == {"schema", "experiments", "totals"}
    assert report["totals"] == {"experiments": 1, "ok": 1, "errors": 0}
    (experiment,) = report["experiments"]
    assert set(experiment) == {
        "file", "name", "status", "rounds", "messages", "metrics", "tables"
    }
    assert experiment["rounds"] == 7
    assert experiment["messages"] == 5
    assert experiment["tables"][0]["title"] == "tiny table"

    text = md.read_text()
    assert "# EXPERIMENTS" in text
    assert "tiny table" in text
    assert "| 1 | 2 |" in text


def test_main_nonzero_exit_on_error(tmp_path):
    bench_dir = _write_bench_dir(tmp_path, {"bench_bad.py": BAD_BENCH})
    out = tmp_path / "BENCH_err.json"
    code = main([
        "--bench-dir", str(bench_dir), "--out", str(out), "--no-experiments",
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["totals"]["errors"] == 1
    assert "FAILED" in render_experiments_md(
        run_all(bench_dir)
    )


def test_an_experiment_reports_what_it_recorded_and_nothing_else(tmp_path):
    bench_dir = _write_bench_dir(tmp_path, {"bench_mixed.py": '''
from repro.bench import print_table, record


def test_raises_after_recording():
    print_table("half a table", ["k"], [(1,)])
    record(rounds=1, messages=2)
    raise RuntimeError("late failure")


def test_records_no_rounds():
    record(note="structural")


def test_still_takes_a_parameter(benchmark):
    pass
'''})
    first, second, third = run_all(bench_dir)
    assert first.status == "error" and "late failure" in first.error
    assert (first.rounds, first.messages) == (1, 2)
    # the registries are drained per experiment: nothing carries over
    assert second.status == "ok"
    assert second.metrics == {"note": "structural"} and second.tables == []
    assert (second.rounds, second.messages) == (None, None)
    # an experiment is called with no arguments; one that wants any is an
    # error on its own record, not a crashed sweep
    assert third.status == "error" and "benchmark" in third.error


def test_results_json_headline_ignores_non_int_rounds(tmp_path):
    bench_dir = _write_bench_dir(tmp_path, {"bench_dictround.py": '''
from repro.bench import record


def test_dict_rounds():
    record(rounds={"a": 1}, messages=True)
'''})
    results = run_all(bench_dir)
    payload = results_to_json(results)
    (experiment,) = payload["experiments"]
    # dict-valued rounds and bool-valued messages are not headline counts
    assert experiment["rounds"] is None
    assert experiment["messages"] is None


GOOD_BENCH_B = '''
from repro.bench import record


def test_other():
    record(rounds=3, messages=11)
'''


def test_jobs_parallel_sweep_is_deterministic_and_identical(tmp_path):
    bench_dir = _write_bench_dir(
        tmp_path,
        {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH,
         "bench_bad.py": BAD_BENCH},
    )
    serial = run_all(bench_dir, jobs=1)
    parallel = run_all(bench_dir, jobs=3)
    # The reports carry model facts only, so the whole dump and the whole
    # document — the erroring file's traceback included — are byte-equal.
    assert json.dumps(results_to_json(serial)) == json.dumps(
        results_to_json(parallel)
    )
    assert render_experiments_md(serial) == render_experiments_md(parallel)
    assert "intentional failure" in render_experiments_md(parallel)
    # Sorted by file name, definition order within a file.
    assert [r.file for r in parallel] == [
        "bench_b.py", "bench_bad.py", "bench_tiny.py"
    ]


def test_resolve_jobs():
    from repro.bench.runner import resolve_jobs

    assert resolve_jobs("1") == 1
    assert resolve_jobs("4") == 4  # run_all caps at the file count
    assert resolve_jobs("auto") >= 1
    import pytest
    with pytest.raises(SystemExit):
        resolve_jobs("zero")
    with pytest.raises(SystemExit):
        resolve_jobs("0")


def test_jobs_verbose_lets_tables_through(tmp_path, capfd):
    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    run_all(bench_dir, jobs=2, quiet=False)
    out = capfd.readouterr().out
    assert "tiny table" in out  # worker stdout is inherited, not swallowed


def test_check_against_baseline_detects_drift_and_absence(tmp_path):
    from repro.bench.runner import check_against_baseline

    bench_dir = _write_bench_dir(tmp_path, {"bench_tiny.py": GOOD_BENCH})
    results = run_all(bench_dir)
    baseline_path = tmp_path / "BASE.json"

    # Identical baseline: parity.
    baseline_path.write_text(json.dumps(results_to_json(results), default=str))
    assert check_against_baseline(results, baseline_path, report=lambda s: None) == []

    # Drifted rounds: flagged.
    drifted = json.loads(baseline_path.read_text())
    drifted["experiments"][0]["rounds"] = 999
    baseline_path.write_text(json.dumps(drifted))
    problems = check_against_baseline(results, baseline_path, report=lambda s: None)
    assert len(problems) == 1 and "ledger drift" in problems[0]

    # Baseline with an extra experiment: its absence is a failure; a new
    # experiment not in the baseline is skipped, not flagged.
    extra = json.loads(baseline_path.read_text())
    extra["experiments"][0]["rounds"] = 7  # restore parity
    extra["experiments"].append(
        {"file": "bench_gone.py", "name": "test_gone", "status": "ok",
         "rounds": 1, "messages": 1}
    )
    baseline_path.write_text(json.dumps(extra))
    problems = check_against_baseline(results, baseline_path, report=lambda s: None)
    assert len(problems) == 1 and "missing from this run" in problems[0]


def test_main_check_against_gates_exit_code(tmp_path):
    bench_dir = _write_bench_dir(tmp_path, {"bench_tiny.py": GOOD_BENCH})
    out = tmp_path / "BENCH_a.json"
    assert main(["--bench-dir", str(bench_dir), "--out", str(out),
                 "--no-experiments"]) == 0

    # Parity against itself.
    out2 = tmp_path / "BENCH_b.json"
    assert main(["--bench-dir", str(bench_dir), "--out", str(out2),
                 "--no-experiments", "--jobs", "2",
                 "--check-against", str(out)]) == 0

    # Drift the baseline: the gate must fail with the dedicated code.
    report = json.loads(out.read_text())
    report["experiments"][0]["messages"] = 12345
    out.write_text(json.dumps(report))
    assert main(["--bench-dir", str(bench_dir), "--out", str(out2),
                 "--no-experiments", "--check-against", str(out)]) == 3

    # Missing baseline file.
    assert main(["--bench-dir", str(bench_dir), "--out", str(out2),
                 "--no-experiments",
                 "--check-against", str(tmp_path / "nope.json")]) == 2


def test_check_against_respects_only_filter(tmp_path):
    from repro.bench.runner import check_against_baseline

    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    full = run_all(bench_dir)
    baseline_path = tmp_path / "BASE.json"
    baseline_path.write_text(json.dumps(results_to_json(full), default=str))

    # A filtered re-run must not report out-of-scope experiments missing.
    subset = run_all(bench_dir, only="tiny")
    assert check_against_baseline(
        subset, baseline_path, report=lambda s: None, only="tiny"
    ) == []
    # The same subset without the scope hint is flagged (gate coverage).
    problems = check_against_baseline(
        subset, baseline_path, report=lambda s: None
    )
    assert len(problems) == 1 and "missing from this run" in problems[0]

    # main() threads --only through to the gate.
    out = tmp_path / "B2.json"
    assert main(["--bench-dir", str(bench_dir), "--out", str(out),
                 "--no-experiments", "--only", "tiny",
                 "--check-against", str(baseline_path)]) == 0


def test_only_glob_matching(tmp_path):
    from repro.bench.runner import only_matches

    # Plain strings keep the historical substring behavior.
    assert only_matches(None, "bench_scaling.py")
    assert only_matches("scaling", "bench_scaling.py")
    assert not only_matches("families", "bench_scaling.py")
    # Metacharacters switch to shell-glob matching over the file name.
    assert only_matches("bench_t*.py", "bench_tiny.py")
    assert only_matches("*tiny*", "bench_tiny.py")
    assert not only_matches("bench_t*.py", "bench_b.py")
    assert only_matches("bench_?.py", "bench_b.py")

    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    assert [r.file for r in run_all(bench_dir, only="bench_t*")] == [
        "bench_tiny.py"
    ]
    assert {r.file for r in run_all(bench_dir, only="bench_*")} == {
        "bench_b.py", "bench_tiny.py"
    }
    assert run_all(bench_dir, only="bench_z*") == []


def test_check_against_respects_only_glob(tmp_path):
    from repro.bench.runner import check_against_baseline

    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    full = run_all(bench_dir)
    baseline_path = tmp_path / "BASE.json"
    baseline_path.write_text(json.dumps(results_to_json(full), default=str))
    subset = run_all(bench_dir, only="bench_t*")
    assert check_against_baseline(
        subset, baseline_path, report=lambda s: None, only="bench_t*"
    ) == []


def test_filtered_sweep_never_writes_experiments_md(
    tmp_path, capsys, monkeypatch
):
    """A partial run must not clobber the (committed, CI-diffed) document:
    --only implies --no-experiments, and says so when a path was named."""
    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    md = tmp_path / "EXPERIMENTS.md"
    md.write_text("the full sweep's document\n")
    base = ["--bench-dir", str(bench_dir), "--out", str(tmp_path / "B.json")]

    assert main(base + ["--only", "tiny", "--experiments-md", str(md)]) == 0
    assert md.read_text() == "the full sweep's document\n"
    assert "--only implies --no-experiments" in capsys.readouterr().err

    # The default path (EXPERIMENTS.md in cwd) is protected the same way.
    monkeypatch.chdir(tmp_path)
    assert main(base + ["--only", "tiny"]) == 0
    assert md.read_text() == "the full sweep's document\n"
    assert capsys.readouterr().err == ""
    # The unfiltered sweep does regenerate it.
    assert main(base) == 0
    assert "tiny table" in md.read_text()


def test_traced_sweep_renders_the_same_reports(tmp_path):
    """--trace writes trace files and changes nothing else."""
    bench_dir = _write_bench_dir(
        tmp_path, {"bench_b.py": GOOD_BENCH_B, "bench_tiny.py": GOOD_BENCH}
    )
    outs = {}
    for label, extra in (
        ("plain", []), ("traced", ["--trace", str(tmp_path / "traces")]),
    ):
        out, md = tmp_path / f"{label}.json", tmp_path / f"{label}.md"
        assert main(["--bench-dir", str(bench_dir), "--out", str(out),
                     "--experiments-md", str(md)] + extra) == 0
        outs[label] = (out.read_bytes(), md.read_bytes())
    assert outs["plain"] == outs["traced"]
    assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == [
        "bench_b__test_other.trace.json", "bench_tiny__test_tiny.trace.json",
    ]
