"""``python -m repro.obs``: the explain and diff commands and their exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.congest import PhaseStats
from repro.obs import Tracer
from repro.obs.__main__ import main


def _write_trace(path, rounds=3):
    tracer = Tracer()
    tracer.ledger("main", PhaseStats("wave", rounds=rounds, messages=10, bits=80))
    tracer.ledger("main", PhaseStats("bfs", rounds=7, messages=100))
    tracer.write_chrome(path)
    return path


def test_summarize_is_gone(tmp_path, capsys):
    trace = _write_trace(tmp_path / "a.trace.json")
    with pytest.raises(SystemExit) as exit_:
        main(["summarize", str(trace)])
    assert exit_.value.code == 2
    assert "invalid choice: 'summarize'" in capsys.readouterr().err


def test_help_lists_explain_and_diff_only(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{explain,diff}" in capsys.readouterr().out


def test_explain_exits_zero_and_names_the_owners(tmp_path, capsys):
    trace = _write_trace(tmp_path / "a.trace.json")
    assert main(["explain", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "stream main: rounds=10 messages=110" in out
    assert "no pa.net instant" in out
    assert "round slack: owned by bfs (70.0% of rounds)" in out
    assert "message slack: owned by bfs (90.9% of messages)" in out


def test_explain_without_ledger_events_exits_one(tmp_path, capsys):
    tracer = Tracer()
    tracer.instant("pa.net", "pa", {"n": 4, "m": 3, "depth": 2})
    tracer.write_chrome(tmp_path / "empty.trace.json")
    assert main(["explain", str(tmp_path / "empty.trace.json")]) == 1
    assert "no main-stream ledger events" in capsys.readouterr().out


def test_explain_missing_file_exits_two(tmp_path, capsys):
    assert main(["explain", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_diff_identical_traces_exits_zero(tmp_path, capsys):
    a = _write_trace(tmp_path / "a.trace.json")
    b = _write_trace(tmp_path / "b.trace.json")
    assert main(["diff", str(a), str(b)]) == 0
    assert "zero drift" in capsys.readouterr().out


def test_diff_drift_exits_three_and_names_the_phase(tmp_path, capsys):
    a = _write_trace(tmp_path / "a.trace.json", rounds=3)
    b = _write_trace(tmp_path / "b.trace.json", rounds=4)
    assert main(["diff", str(a), str(b)]) == 3
    out = capsys.readouterr().out
    assert "[main] wave: rounds 3 -> 4" in out


def test_diff_missing_file_exits_two(tmp_path, capsys):
    a = _write_trace(tmp_path / "a.trace.json")
    assert main(["diff", str(a), str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_module_entry_point_runs_as_subprocess(tmp_path):
    import repro

    trace = _write_trace(tmp_path / "a.trace.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "explain", str(trace)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "stream main" in proc.stdout
