"""Deterministic merge of per-shard phase logs.

Shards run the same three wave phases over edge-disjoint, state-disjoint
subsystems of one synchronous execution: every message of the serial run
happens in exactly one shard, at the same absolute tick it would have in
the serial engine.  The serial phase therefore decomposes exactly:

* ``rounds`` / ``ticks`` — the serial phase runs until *global*
  quiescence, i.e. the max over shards of their quiescence ticks
  (idle gaps are fast-forwarded but charged identically either way);
* ``messages`` — a disjoint union: the sum over shards;
* ``bits`` — summed, but *not* bit-for-bit with the serial run: part
  ids relabel to a smaller local range, so per-message pid widths can
  shrink.  Bits are a diagnostic and are never part of the drift gate
  (see :class:`~repro.congest.ledger.PhaseStats`).

Shards are merged in shard-index order; since max and sum are
order-insensitive this only fixes the (deterministic) trace order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..congest.ledger import PhaseStats

#: The picklable wire form of one phase: (name, rounds, messages, ticks,
#: bits).
WirePhase = Tuple[str, int, int, int, int]


def phases_to_wire(phases: Sequence[PhaseStats]) -> List[WirePhase]:
    """Flatten a worker ledger's phase log for the pipe."""
    return [(s.name, s.rounds, s.messages, s.ticks, s.bits) for s in phases]


def merge_shard_phases(
    shard_phases: Sequence[Sequence[WirePhase]],
) -> List[PhaseStats]:
    """Merge per-shard phase logs into one serial-equivalent log.

    All shards run the same phase sequence (same names, same order);
    position ``k`` of every log is the same phase restricted to that
    shard.  Raises if the logs disagree structurally — that would mean
    the shards did not run one common plan.
    """
    if not shard_phases:
        return []
    reference = [p[0] for p in shard_phases[0]]
    for log in shard_phases[1:]:
        if [p[0] for p in log] != reference:
            raise RuntimeError(
                f"shard phase logs diverge: {reference} vs {[p[0] for p in log]}"
            )
    merged: List[PhaseStats] = []
    for k, name in enumerate(reference):
        rows = [log[k] for log in shard_phases]
        merged.append(
            PhaseStats(
                name=name,
                rounds=max(r[1] for r in rows),
                messages=sum(r[2] for r in rows),
                ticks=max(r[3] for r in rows),
                bits=sum(r[4] for r in rows),
            )
        )
    return merged
