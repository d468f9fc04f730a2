"""repro.shard — the multiprocess sharded backend behind :class:`PASession`.

The PA waves are embarrassingly parallel across *conflict components*:
groups of parts that share spanning-tree edges (directly via their
``H_i`` sets, or indirectly through an in-part tree edge).  Two parts in
different components never place a message on the same directed edge
during a wave pass, and the per-part wave state is disjoint, so each
component's three phases replay bit-for-bit inside an isolated engine
over the induced sub-network.

The backend splits into three layers:

* :mod:`repro.shard.plan` — orchestrator-side shard plan: union-find
  the conflict components, bin them deterministically into worker
  shards;
* :mod:`repro.shard.views` — restrict the global setup (network,
  partition, division, shortcut, annotations, wave plan) to one shard,
  as a picklable payload plus the worker-side rebuild;
* :mod:`repro.shard.orchestrator` / :mod:`repro.shard.worker` — the
  rank-0 driver that ships shards to persistent forked workers, runs
  the wave phases between barriers, and merges the per-shard ledgers
  deterministically in shard-index order (rounds/ticks max, messages/
  bits sum).

See docs/architecture.md, "Sharded backend", for the parity argument
and its exact boundary (rounds/messages are bit-for-bit; ``bits`` is
not gated).
"""

from .ledger_merge import merge_shard_phases
from .orchestrator import ShardOrchestrator, encode_aggregation
from .plan import ShardPlan, build_shard_plan

__all__ = [
    "ShardOrchestrator",
    "ShardPlan",
    "build_shard_plan",
    "encode_aggregation",
    "merge_shard_phases",
]
