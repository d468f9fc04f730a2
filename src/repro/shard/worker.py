"""The shard worker: a forked process running wave phases on one shard.

Each worker owns one end of a pipe and loops over three requests:

* ``("load", setup_id, payload)`` — rebuild the shard structures
  (:func:`~repro.shard.views.rebuild_shard`) and construct the engine;
  kept under ``setup_id`` until ``unload`` — the orchestrator's memo is
  the one bound on resident setups, so the two sides never disagree;
* ``("solve", setup_id, solve)`` — run the planned wave phases on the
  cached shard, on its route (learned here, or re-derived off the ledger
  from the delay draw rank 0 says was paid for), and reply with the phase
  log, local aggregates, member values and per-phase wall seconds;
* ``("unload", setup_id)`` — drop a loaded shard (the session evicted
  the setup, or the orchestrator's memo retired it);
* ``("close",)`` — exit.

Workers are forked, so they inherit the parent's loaded modules and
never re-import; payloads travel pickled through the pipe: flat int64
columns (the block annotations' among them), a few scalars, and two
that are not columns — the per-node ``up_parts`` tuples and the
``part_leader`` list.  Any exception is caught and
shipped back as ``("error", traceback)`` — the orchestrator re-raises
it rank-0 side instead of hanging on a dead barrier.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Tuple

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..core.wave import RouteMemo, run_planned_waves
from .ledger_merge import phases_to_wire
from .views import ShardSetup, rebuild_shard


class _LoadedShard:
    __slots__ = ("setup", "engine", "route")

    def __init__(self, setup: ShardSetup, engine: Engine) -> None:
        self.setup = setup
        self.engine = engine
        #: This process's memo of the shard's route; rank 0 says with
        #: every solve under which delay draw it was paid for, if at all.
        self.route = RouteMemo()


def _load(payload: Dict[str, object]) -> _LoadedShard:
    setup = rebuild_shard(payload)
    return _LoadedShard(setup, Engine(setup.net, **payload["engine_flags"]))


def _solve(shard: _LoadedShard, solve: Dict[str, object]) -> Dict[str, object]:
    from .orchestrator import decode_aggregation  # fork-safe, no cycle at import

    setup = shard.setup
    agg = decode_aggregation(solve["agg"])
    ledger = CostLedger()
    if shard.route.delays != solve["paid"]:
        # Learned here but never committed rank-0 side, or paid for where
        # this worker was not (locally, or before a re-ship).
        shard.route = RouteMemo(delays=solve["paid"])
    start = time.perf_counter()
    outcome = run_planned_waves(
        shard.engine,
        setup.net,
        setup.partition,
        setup.division,
        setup.shortcut,
        setup.annotations,
        solve["values"],
        agg,
        ledger,
        solve["plan"],
        phase_prefix=solve["phase_prefix"],
        route=shard.route,
    )
    wall = time.perf_counter() - start
    member_values = [
        outcome.value_at_node[int(lv)] for lv in setup.member_locals
    ]
    return {
        "phases": phases_to_wire(ledger.phases()),
        "aggregates": dict(outcome.aggregates),
        "member_values": member_values,
        "wire_edges": outcome.wire_edges,
        "forest_edges": outcome.forest_edges,
        "wall_seconds": wall,
    }


def worker_main(conn) -> None:
    """Run the worker loop on ``conn`` until ``close`` or EOF."""
    shards: Dict[object, _LoadedShard] = {}
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        kind = msg[0]
        try:
            if kind == "load":
                _kind, setup_id, payload = msg
                shards[setup_id] = _load(payload)
                conn.send(("ok", setup_id))
            elif kind == "solve":
                _kind, setup_id, solve = msg
                shard = shards.get(setup_id)
                if shard is None:
                    raise RuntimeError(f"setup {setup_id!r} not loaded")
                conn.send(("result", _solve(shard, solve)))
            elif kind == "unload":
                _kind, setup_id = msg
                shards.pop(setup_id, None)
                conn.send(("ok", setup_id))
            elif kind == "close":
                conn.send(("ok", "close"))
                break
            else:
                raise RuntimeError(f"unknown request {kind!r}")
        except Exception:  # noqa: BLE001 - ship to orchestrator, don't hang
            conn.send(("error", traceback.format_exc()))
    conn.close()
