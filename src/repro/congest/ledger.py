"""Round and message accounting.

Every communication phase run on the engine reports a :class:`PhaseStats`;
an algorithm accumulates them into a :class:`CostLedger`.  The ledger is the
ground truth for every number reported in EXPERIMENTS.md: benchmarks read
``ledger.rounds`` and ``ledger.messages``, never closed-form formulas.

Rounds compose *sequentially* across phases (synchronous algorithms run
phase k+1 after a globally known round bound for phase k), so the ledger
simply sums them.  Phases that conceptually run in parallel on disjoint
parts of the graph are implemented as a single engine phase, so no special
"parallel composition" accounting is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..obs.tracer import current_tracer


@dataclass(frozen=True)
class PhaseStats:
    """Metered cost of one engine phase.

    ``rounds`` already includes any meta-round blowup (an engine tick with
    per-edge capacity kappa > 1 models kappa CONGEST rounds, as in the
    randomized variant of Section 4.2).

    ``bits`` is the summed payload-bit cost of the phase's messages — a
    diagnostic, finer than the O(log n)-budget audit: it is tracked
    whenever the engine runs with ``strict_bits`` (the audit computes the
    per-message cost anyway) and is 0 when the audit is off (untracked,
    not free).  It is never part of the rounds/messages gate.
    """

    name: str
    rounds: int
    messages: int
    ticks: int = 0
    bits: int = 0

    def __add__(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            name=self.name,
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            ticks=self.ticks + other.ticks,
            bits=self.bits + other.bits,
        )


class CostLedger:
    """Accumulates phase costs for one algorithm execution.

    The ledger keeps both the running totals and the full phase log so that
    benchmarks can break a cost down by pipeline stage (e.g. "how many
    messages did shortcut construction use vs. the PA waves?").

    ``stream`` labels the accounting stream a ledger belongs to in trace
    output (``"main"`` for algorithm cost, ``"async_overhead"`` for the
    synchronizer tax, ``"recovery"`` for the fault-recovery tax).  It has
    no effect on the totals — it only tags the trace events that
    :meth:`charge` emits when a tracer is installed.
    """

    def __init__(self, stream: str = "main") -> None:
        self._phases: List[PhaseStats] = []
        self.rounds: int = 0
        self.messages: int = 0
        self.stream = stream

    def record(self, stats: PhaseStats) -> PhaseStats:
        """Append one phase and add it to the totals — no trace event.

        Re-attribution paths (:meth:`merge`, recovery-tax splits) use
        this so every :class:`PhaseStats` is traced exactly once, at the
        ledger it was *first* charged to: summing a trace's ledger events
        never double counts.
        """
        self._phases.append(stats)
        self.rounds += stats.rounds
        self.messages += stats.messages
        return stats

    def charge(self, stats: PhaseStats) -> PhaseStats:
        """Record one phase and add it to the totals (traced if enabled)."""
        tracer = current_tracer()
        if tracer.enabled:
            tracer.ledger(self.stream, stats)
        return self.record(stats)

    def charge_local(self, name: str, rounds: int = 0, messages: int = 0) -> PhaseStats:
        """Charge a cost known without running the engine.

        Used for steps whose cost is structural and exact, e.g. "every node
        tells each neighbor its new component id" (1 round, 2m messages).
        """
        stats = PhaseStats(name=name, rounds=rounds, messages=messages)
        return self.charge(stats)

    def merge(self, other: "CostLedger", prefix: str = "") -> None:
        """Fold another ledger (e.g. of a sub-algorithm) into this one.

        A re-attribution, not a new cost: the phases were already traced
        when first charged to ``other``, so this uses :meth:`record`.
        """
        for stats in other._phases:
            name = f"{prefix}{stats.name}" if prefix else stats.name
            self.record(
                PhaseStats(
                    name=name,
                    rounds=stats.rounds,
                    messages=stats.messages,
                    ticks=stats.ticks,
                    bits=stats.bits,
                )
            )

    def phases(self) -> Tuple[PhaseStats, ...]:
        """The phase log, in execution order."""
        return tuple(self._phases)

    def by_name(self) -> Dict[str, PhaseStats]:
        """Aggregate phase costs by phase name."""
        out: Dict[str, PhaseStats] = {}
        for stats in self._phases:
            if stats.name in out:
                out[stats.name] = out[stats.name] + stats
            else:
                out[stats.name] = stats
        return out

    def __iter__(self) -> Iterator[PhaseStats]:
        return iter(self._phases)

    def __repr__(self) -> str:
        return (
            f"CostLedger(stream={self.stream!r}, phases={len(self._phases)}, "
            f"rounds={self.rounds}, messages={self.messages})"
        )


@dataclass
class RunResult:
    """Standard return envelope for a distributed algorithm run.

    ``output`` is algorithm-specific (e.g. per-node aggregates for PA, the
    MST edge set for MST); ``ledger`` carries the metered cost.
    """

    output: object
    ledger: CostLedger
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    @property
    def messages(self) -> int:
        return self.ledger.messages

