"""Shared process-pool sizing for parallel sweeps and the shard backend.

Two subsystems fan work out over worker processes: the bench runner
(``--jobs``, one bench file per task) and the sharded PA backend
(``PASession(backend="sharded", workers=...)``, one shard per worker).
Both size their pools identically — this module is the single
implementation, so ``"auto"`` means the same thing everywhere and the
validation rules cannot drift apart.
"""

from __future__ import annotations

import os
from typing import Type, Union

WorkerSpec = Union[int, str, None]


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: inside a
    cgroup-limited container (CI runners, ``docker --cpus``, batch
    schedulers) it counts cores the scheduler will never grant, so sizing
    a pool by it oversubscribes every worker onto a fraction of a core.
    The scheduler affinity mask (``os.sched_getaffinity``) is the honest
    figure where the platform exposes it (Linux); elsewhere fall back to
    ``os.cpu_count() or 1``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_workers(
    spec: WorkerSpec, *, error: Type[BaseException] = ValueError
) -> int:
    """Turn a worker-count spec into a positive worker count.

    ``"auto"`` (or ``None``) resolves to :func:`available_cpus` — the
    scheduler-affinity CPU count where available, so cgroup-limited
    containers get pools they can actually run; anything else must parse
    as an integer >= 1.  Invalid specs raise ``error`` (``ValueError`` by
    default; the bench CLI passes ``SystemExit`` so bad ``--jobs``
    arguments exit with a message instead of a traceback).
    """
    if spec is None or spec == "auto":
        return available_cpus()
    try:
        count = int(spec)
    except (TypeError, ValueError):
        raise error(
            f"error: worker count must be an integer or 'auto', got {spec!r}"
        )
    if count < 1:
        raise error(f"error: worker count must be >= 1, got {count}")
    return count
