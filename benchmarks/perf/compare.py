"""Compare two sets of benchmark records: ``compare.py A B``.

``A`` (the base) and ``B`` are each a record written by ``run.py --out``
or a directory of such records (one per run; all of one seed).  For each
workload and each end-to-end metric one row shows both medians, the
ratio B/A with its base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  the run-to-run spread of A (distance between its
                quartiles over its median; needs four records) exceeds
                the bound, and B's runs are not all better than A's
``changed``     an exact count (``round_slack``, ``msg_slack``) differs
                although it got no worse

Exact counts repeat bit for bit on one seed, so they compare with ``==``
and any worsening at all is ``regressed``.  The exit code is non-zero on
any regression and when ``fail_share`` (failed ops / attempted ops) of
any workload is higher in B.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parents[2]
EXACT = ("round_slack", "msg_slack")


def load(path: str) -> List[Dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    records = [json.loads(f.read_text()) for f in files]
    if not records:
        raise SystemExit(f"compare.py: no records in {path}")
    return records


def values(records: List[Dict], workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric]["value"]
        for r in records
        if workload in r["workloads"] and metric in r["workloads"][workload]["metrics"]
    ]


def fail_share(records: List[Dict], workload: str) -> float:
    runs = [r["workloads"][workload] for r in records if workload in r["workloads"]]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric: Dict, a: List[float], b: List[float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if metric["name"] in EXACT:
        if med_a == med_b:
            return "ok"
        return "regressed" if sign * (med_b - med_a) > 0 else "changed"
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if len(a) >= 4:
        q1, _q2, q3 = statistics.quantiles(a, n=4)
        spread = (q3 - q1) / abs(med_a) if med_a else 0.0
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        if spread > metric["bound"] and not all_better:
            return "unresolved"
    return "regressed" if worse_by > metric["bound"] else "ok"


def compare(spec: Dict, a: List[Dict], b: List[Dict]) -> int:
    seeds = {r["seed"] for r in a + b}
    if len(seeds) != 1:
        raise SystemExit(f"compare.py: records of different seeds {sorted(seeds)}")
    bad = 0
    print(
        f"seed {seeds.pop()}; A: {len(a)} record(s), B: {len(b)} record(s)"
        + ("" if len(a) >= 4 else "; spread unknown (fewer than 4 records in A)")
    )
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s}  {'B/A (base A)':24s} bound  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            va = values(a, workload, metric["name"])
            vb = values(b, workload, metric["name"])
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            ratio = med_b / med_a if med_a else float("nan")
            word = verdict(metric, va, vb)
            bad += word == "regressed"
            base = f"{ratio:.3f} (of {med_a:.4g} {metric['unit']})"
            print(
                f"{workload:14s} {metric['name']:12s} {med_a:12.6g} {med_b:12.6g}  "
                f"{base:24s} {metric['bound']:5.2f}  {word}"
            )
        share_a, share_b = fail_share(a, workload), fail_share(b, workload)
        if share_a or share_b:
            word = "regressed" if share_b > share_a else "ok"
            bad += word == "regressed"
            print(f"{workload:14s} {'fail_share':12s} {share_a:12.6g} {share_b:12.6g}  {'':30s}  {word}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return compare(spec, load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
