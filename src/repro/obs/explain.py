"""``python -m repro.obs explain``: which phase family owns the slack.

The paper's currency is rounds against ``D + sqrt n`` and messages
against ``m``.  A trace holds everything needed to place a run against
both: its main-stream ledger events, and the ``pa.net`` instant a
:class:`~repro.core.pa.PASolver` emits where it builds its tree (``n``,
``m``, tree depth).  :func:`explain` folds the ledger phases into
*families* — ``phase7_moe_reverse`` and ``phase9_moe_reverse``
are one family, as are the ``verify_k_*`` of a build's iterations and
the ``attempt{k}:`` copies of a recovery — and reports, per family and
in total, rounds, messages, their share of the run, and both as
multiples of the envelopes ``depth + ceil(sqrt n)`` and ``m``; the
family with the largest share of each currency *owns* that slack.  The
``session.prepare`` spans say what the solves ran on: how many setups
were built in full, projected or rebuilt, whether each projection's
verification ran or was implied by its parent's block counts, and the
(b, c) and sub-part counts they achieved; the ``merge.round`` instants of
a Boruvka-style loop say how many rounds it took against ``log2 n`` and
what share of the picking clusters joined in each.

First cut: one trace.  The log-power a slack grows with across several
``n`` is a fit over several traces and is left for the next one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .summary import PhaseTotals

_ATTEMPT = re.compile(r"^(?:(?:attempt|reelect)\d+:)+")
_PHASE = re.compile(r"phase\d+")
_ALGORITHM = re.compile(r"alg\d+")
_COUNTER = re.compile(r"\d+q?$")


def phase_family(name: str) -> str:
    """A ledger phase's family: its name without the loop counters.

    Dropped: the ``attempt{k}:`` / ``reelect{k}:`` prefixes of a
    recovery, ``phase{k}`` of a merging loop, an all-digit token (an
    iteration number: ``verify_2_wave``, ``alg8_1_rank0_cross``) and a
    token's trailing counter (``rank0``, ``bc12``, ``serve5q``).  The
    paper's algorithm numbers stay (``alg8``, ``alg9``).
    """
    tokens = []
    for token in _ATTEMPT.sub("", name).split("_"):
        if token.isdigit() or _PHASE.fullmatch(token):
            continue
        if not _ALGORITHM.fullmatch(token):
            token = _COUNTER.sub("", token)
        tokens.append(token)
    return "_".join(tokens)


@dataclass
class Explanation:
    """Everything ``explain`` prints, computed from one event list."""

    #: family -> aggregated main-stream ledger quantities.
    families: Dict[str, PhaseTotals] = field(default_factory=dict)
    rounds: int = 0
    messages: int = 0
    #: The first ``pa.net`` instant (``None``: no ``PASolver`` was traced).
    n: Optional[int] = None
    m: Optional[int] = None
    depth: Optional[int] = None
    #: ``session.prepare`` span args, in order.
    prepares: List[Dict] = field(default_factory=list)
    #: ``merge.round`` instant args, in order.
    merge_rounds: List[Dict] = field(default_factory=list)

    @property
    def round_envelope(self) -> Optional[int]:
        """``depth + ceil(sqrt n)``: D + sqrt n, the tree depth for D."""
        if self.n is None:
            return None
        return self.depth + math.isqrt(self.n - 1) + 1

    def owner(self, by: str) -> Optional[Tuple[str, PhaseTotals]]:
        """The family with the largest total of ledger column ``by``."""
        if not self.families:
            return None
        return min(
            self.families.items(),
            key=lambda item: (-getattr(item[1], by), item[0]),
        )


def explain(events: Sequence[Dict]) -> Explanation:
    """Fold one trace's main-stream ledger into phase families."""
    out = Explanation()
    for event in events:
        args = event.get("args", {})
        name = event.get("name", "?")
        if event.get("cat") == "ledger":
            if args.get("stream", "main") != "main":
                continue
            out.families.setdefault(
                phase_family(name), PhaseTotals()
            ).add(args)
            out.rounds += args.get("rounds", 0)
            out.messages += args.get("messages", 0)
        elif name == "pa.net" and out.n is None:
            out.n, out.m, out.depth = args["n"], args["m"], args["depth"]
        elif name == "session.prepare" and event.get("ph") == "X":
            out.prepares.append(args)
        elif name == "merge.round":
            out.merge_rounds.append(args)
    return out


def _ratio(value: int, base: Optional[int]) -> str:
    return f"{value / base:8.2f}" if base else f"{'-':>8}"


def _share(value: int, total: int) -> str:
    return f"{100 * value / total:5.1f}%" if total else f"{'-':>6}"


def render_explanation(exp: Explanation) -> str:
    """Human-readable report for one trace."""
    if not exp.families:
        return "no main-stream ledger events in trace"
    env = exp.round_envelope
    lines: List[str] = []
    if exp.n is None:
        lines.append("net: no pa.net instant in trace (no envelopes)")
    else:
        lines.append(
            f"net: n={exp.n} m={exp.m} tree depth={exp.depth}; envelopes: "
            f"rounds depth+ceil(sqrt n) = {env}, messages m = {exp.m}"
        )
    width = max(len("family"), max(len(name) for name in exp.families))
    header = (
        f"  {'family'.ljust(width)}  {'count':>6}  {'rounds':>8}  "
        f"{'share':>6}  {'/env':>8}  {'messages':>10}  {'share':>6}  "
        f"{'/m':>8}"
    )
    lines += ["", header, "  " + "-" * (len(header) - 2)]

    def row(name: str, count: int, rounds: int, messages: int) -> str:
        return (
            f"  {name.ljust(width)}  {count:>6}  {rounds:>8}  "
            f"{_share(rounds, exp.rounds)}  {_ratio(rounds, env)}  "
            f"{messages:>10}  {_share(messages, exp.messages)}  "
            f"{_ratio(messages, exp.m)}"
        )

    for name, tot in sorted(
        exp.families.items(),
        key=lambda item: (-item[1].rounds, -item[1].messages, item[0]),
    ):
        lines.append(row(name, tot.count, tot.rounds, tot.messages))
    lines.append(row(
        "total", sum(t.count for t in exp.families.values()),
        exp.rounds, exp.messages,
    ))

    lines.append("")
    for label, by, total, base in (
        ("round", "rounds", exp.rounds, env),
        ("message", "messages", exp.messages, exp.m),
    ):
        name, tot = exp.owner(by)
        slack = f" {total / base:.2f}" if base else ""
        lines.append(
            f"{label} slack{slack}: owned by {name} "
            f"({_share(getattr(tot, by), total).strip()} of {by})"
        )

    shares = [
        args["joins"] / args["picks"]
        for args in exp.merge_rounds if args["picks"]
    ]
    if shares:
        log_n = (
            f" for ceil(log2 n) = {max(1, (exp.n - 1).bit_length())}"
            if exp.n else ""
        )
        lines.append("")
        lines.append(
            f"merge rounds: {len(exp.merge_rounds)}{log_n}; joined share "
            f"min {min(shares):.2f} / mean {sum(shares) / len(shares):.2f}"
        )

    if exp.prepares:
        lines.append("")
        lines.append("setups the solves ran on:")
        by_outcome: Dict[str, List[Dict]] = {}
        for args in exp.prepares:
            by_outcome.setdefault(args.get("outcome", "?"), []).append(args)
        for outcome in sorted(by_outcome):
            group = by_outcome[outcome]
            line = (
                f"  {outcome}: {len(group)}, rounds "
                f"{sum(a.get('rounds', 0) for a in group)}, messages "
                f"{sum(a.get('messages', 0) for a in group)}"
            )
            built = [a for a in group if "subparts" in a]
            if built:  # (traces older than the span's build report lack it)
                subparts = [a["subparts"] for a in built]
                line += (
                    f", max (b, c) = ({max(a['b'] for a in built)}, "
                    f"{max(a['c'] for a in built)}), max block bound "
                    f"{max(a['bound'] for a in built)}, sub-parts "
                    f"{min(subparts)}..{max(subparts)}"
                )
            lines.append(line)
        verified = [a["verified"] for a in exp.prepares if "verified" in a]
        if verified:
            lines.append(
                f"  projections: {verified.count('ran')} verified, "
                f"{verified.count('implied')} implied"
            )
    return "\n".join(lines)
