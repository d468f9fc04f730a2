"""Turning the children's records into the printed result.

Standard library only: the parent process of a run never imports the
program, so what it adds to a run's wall stays small.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def median_layers(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median over ops (a count repeats, so its median is exact)."""
    keys = sorted({k for row in rows for k in row})
    return {
        k: statistics.median(row[k] for row in rows if k in row) for k in keys
    }


#: How long ``perf_harness.reference_loop`` takes at the host speed the
#: time metrics are stated at (about what this container does when its
#: neighbours leave it alone).
REFERENCE_LOOP_S = 0.1


def at_reference_speed(walls: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Walls restated at the host speed where the reference loop takes 0.1 s.

    ``refs[i]`` is ``perf_harness.reference_loop()`` run right after the
    op of ``walls[i]``; see there for why.
    """
    return [w * REFERENCE_LOOP_S / r for w, r in zip(walls, refs)]


def combine(spec: Dict, children: List[Dict], trace: bool) -> Dict:
    """Fold the children of one run into the result the contract prints.

    ``op_wall_s`` is the median over the pooled reps and ``setup_s`` the
    median over the children, both at reference host speed (see
    :func:`at_reference_speed`); ``peak_rss_mb`` is the children's
    maximum.  The children ran identical inputs, so their ledgers must
    agree; a disagreement is one more failed op.
    """
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    sigs = {s for c in children for s in c["signature"]}
    if len(sigs) > 1 and not failures:
        failures.append("ledger differs between the children of one run")
    failed = len(failures)
    raw_walls = [w for c in children for w in c["walls"]]
    refs = [r for c in children for r in c["refs"]]
    walls = at_reference_speed(raw_walls, refs)
    first = children[0]
    denom = first["ecc0"] + math.ceil(math.sqrt(first["n"]))

    def metric(value: float, unit: str) -> Dict:
        return {"value": value, "unit": unit}

    if not trace:
        values = {
            "setup_s": statistics.median(at_reference_speed(
                [c["setup_s"] for c in children],
                [c["setup_ref_s"] for c in children],
            )),
            "op_wall_s": statistics.median(walls) if walls else 0.0,
            "round_slack": first["rounds"] / denom,
            "msg_slack": first["messages"] / first["m"],
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        declared = spec["end_to_end"]
    else:
        values = median_layers([c["layers"] for c in children])
        coverage = values.pop("obs.span_coverage", None)
        traced = at_reference_speed(
            [w for c in children for w in c["traced_walls"]],
            [r for c in children for r in c["traced_refs"]],
        )
        if walls and traced:
            values["obs.trace_overhead_ratio"] = (
                statistics.median(traced) / statistics.median(walls)
            )
            values["host.op_wall_raw_s"] = statistics.median(raw_walls)
            values["host.ref_loop_s"] = statistics.median(refs)
        values["fail_share"] = failed / attempted if attempted else 1.0
        declared = spec["per_layer"]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {
        m["name"]: metric(float(values.get(m["name"], 0.0)), m["unit"])
        for m in declared
    }
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "reps": len(walls),
            "children": len(children),
            "failures": failures[:10],
            "provided": sorted(values),
            "span_coverage": coverage if trace else None,
            "walls": walls,
            "raw_walls": raw_walls,
            "raw_setup_s": [c["setup_s"] for c in children],
        },
    }


def exit_code(results: Dict[str, Dict]) -> int:
    """Non-zero if any workload had a failed op."""
    return 0 if all(r["correct"] for r in results.values()) else 1


def print_result(name, result) -> None:
    detail = result["detail"]
    print(
        f"# {name}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed, {detail['reps']} untraced reps in "
        f"{detail['children']} processes"
    )
    for why in detail["failures"]:
        print(f"# {name}: FAILED op: {why}")
    if detail["span_coverage"] is not None:
        print(
            f"# {name}: benchmark-side spans cover "
            f"{100 * detail['span_coverage']:.1f}% of the traced op wall"
        )
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def layers_markdown(record) -> str:
    """The per-layer table of a traced record, one column per workload."""
    host = record["host"]
    names = list(record["workloads"])
    lines = [
        f"# Per-layer metrics, seed {record['seed']}",
        "",
        f"`host.calib_s` {host['calib_s']:.4f} s, nproc {host['nproc']}, "
        f"Python {host['python']}, numpy {host['numpy']}; "
        f"{record['seconds']} s per workload, medians over reps.",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    first = record["workloads"][names[0]]["metrics"]
    for metric, entry in first.items():
        cells = [
            f"{record['workloads'][n]['metrics'][metric]['value']:.4g}"
            for n in names
        ]
        lines.append(f"| `{metric}` | {entry['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


