"""repro: reproduction of "Round- and Message-Optimal Distributed Graph
Algorithms" (Haeupler, Hershkowitz, Wajc; PODC 2018).

Public API tour:

* ``repro.congest`` — the metered CONGEST simulator (Network, Engine,
  CostLedger).
* ``repro.graphs`` — workload generators, partitions, weights.
* ``repro.core`` — Part-Wise Aggregation: shortcuts, sub-part divisions,
  the Algorithm 1 waves, randomized and deterministic constructions
  (Theorem 1.2; entry point :func:`repro.solve_pa`).
* ``repro.algorithms`` — applications: MST, approximate min-cut,
  approximate SSSP, graph verification, CDS, k-dominating sets
  (Corollaries 1.3-1.5, A.1-A.3).
* ``repro.baselines`` — prior-work comparators (block-aggregation PA,
  GHS-style MST).
* ``repro.analysis`` — sequential reference oracles and the paper's
  Table 1/2 bounds.  The Tables 1-2 families (planar, genus, treewidth,
  pathwidth) run the same general construction as every other graph,
  as the paper's own algorithms do.
* ``repro.runtime`` — :class:`PASession`: the long-lived PA acquisition
  point every algorithm routes through, with opt-in setup caching,
  incremental coarsening across merge phases, and batched
  multi-aggregate solves.
* ``repro.service`` — PA-as-a-service: :class:`PAService` serves
  multi-tenant aggregation query streams over evolving graphs
  (micro-batched waves, incremental partition/edge updates, per-tenant
  ledger attribution).
* ``repro.fuzz`` — the schedule-and-graph differential fuzzer that pins
  sync/async equivalence (``python -m repro.fuzz``).
"""

from .congest import (
    AsyncEngine,
    CostLedger,
    Engine,
    FaultPlan,
    Network,
    PhaseStats,
    Schedule,
    make_schedule,
)
from .core import (
    MAX,
    MIN,
    MIN_TUPLE,
    PAResult,
    PASolver,
    SUM,
    Aggregation,
    Shortcut,
    solve_pa,
)
from .graphs import Partition
from .runtime import PASession, RecoveryDriver
from .service import PAService

__version__ = "1.0.0"

__all__ = [
    "Aggregation",
    "AsyncEngine",
    "CostLedger",
    "Engine",
    "FaultPlan",
    "MAX",
    "MIN",
    "MIN_TUPLE",
    "Network",
    "PAResult",
    "PAService",
    "PASession",
    "PASolver",
    "Partition",
    "PhaseStats",
    "RecoveryDriver",
    "Schedule",
    "SUM",
    "Shortcut",
    "make_schedule",
    "solve_pa",
    "__version__",
]
