"""The shared pool-sizing helper behind --jobs and the shard backend."""

from __future__ import annotations

import os

import pytest

import repro.procpool as procpool
from repro.procpool import available_cpus, resolve_workers


def test_auto_resolves_to_available_cpus():
    assert resolve_workers("auto") == available_cpus()
    assert resolve_workers(None) == available_cpus()


def test_auto_respects_the_affinity_mask(monkeypatch):
    """cgroup-limited containers: size by what the scheduler grants."""
    monkeypatch.setattr(
        procpool.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
    )
    assert available_cpus() == 3
    assert resolve_workers("auto") == 3


def test_auto_falls_back_to_cpu_count_without_affinity(monkeypatch):
    """Platforms without sched_getaffinity (macOS/Windows) keep working."""
    monkeypatch.delattr(procpool.os, "sched_getaffinity", raising=False)
    assert available_cpus() == (os.cpu_count() or 1)
    assert resolve_workers("auto") == (os.cpu_count() or 1)


def test_empty_affinity_mask_never_returns_zero(monkeypatch):
    monkeypatch.setattr(
        procpool.os, "sched_getaffinity", lambda pid: set(), raising=False
    )
    assert available_cpus() == 1


def test_explicit_counts():
    assert resolve_workers(1) == 1
    assert resolve_workers(8) == 8
    assert resolve_workers("4") == 4


@pytest.mark.parametrize("bad", ["lots", "", "3.5", object()])
def test_unparseable_specs_raise(bad):
    with pytest.raises(ValueError):
        resolve_workers(bad)


@pytest.mark.parametrize("bad", [0, -1, "-3"])
def test_non_positive_counts_raise(bad):
    with pytest.raises(ValueError):
        resolve_workers(bad)


def test_error_class_is_configurable():
    with pytest.raises(SystemExit):
        resolve_workers("nope", error=SystemExit)
    with pytest.raises(SystemExit):
        resolve_workers(0, error=SystemExit)
