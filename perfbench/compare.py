"""``python -m perfbench compare A.json B.json``: B against its base A.

One row per (workload, end-to-end metric): both medians, both spreads,
the ratio B/A with its base, and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is worse by more than the bound;
``unresolved``  a spread is wider than the bound and the block values of
                the two runs overlap, so neither can be claimed.

Exits non-zero on any ``worse`` or when B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from perfbench import spec


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("base", type=Path, help="results.json of the parent (A)")
    parser.add_argument("change", type=Path, help="results.json of the change (B)")


def verdict(metric: spec.Metric, a: dict, b: dict) -> tuple[str, float]:
    """``(verdict, share of A by which B is worse)`` for one row."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    noisy = max(a["spread"], b["spread"]) > metric.bound
    overlap = (min(b["values"]) <= max(a["values"])
               and min(a["values"]) <= max(b["values"]))
    if noisy and overlap:
        return "unresolved", worse_by
    return ("worse" if worse_by > metric.bound else "ok"), worse_by


def failed_share(entry: dict) -> float:
    return entry["ops_failed"] / max(1, entry["ops_attempted"])


def compare(base: dict, change: dict) -> tuple[list[dict], list[str]]:
    """Rows of the comparison and the reasons to reject B, if any."""
    rows, reasons = [], []
    for workload in spec.WORKLOADS:
        a_entry = base["workloads"].get(workload.name)
        b_entry = change["workloads"].get(workload.name)
        if a_entry is None or b_entry is None:
            continue
        if failed_share(b_entry) > failed_share(a_entry):
            reasons.append(
                f"{workload.name}: ops_failed/ops_attempted rose from "
                f"{a_entry['ops_failed']}/{a_entry['ops_attempted']} to "
                f"{b_entry['ops_failed']}/{b_entry['ops_attempted']}"
            )
        for metric in spec.END_TO_END:
            a = a_entry["end_to_end"].get(metric.name)
            b = b_entry["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            word, worse_by = verdict(metric, a, b)
            rows.append({
                "workload": workload.name, "metric": metric.name,
                "unit": metric.unit, "a": a["value"], "a_spread": a["spread"],
                "b": b["value"], "b_spread": b["spread"],
                "ratio": b["value"] / a["value"] if a["value"] else float("nan"),
                "worse_by": worse_by, "bound": metric.bound, "verdict": word,
            })
            if word == "worse":
                reasons.append(
                    f"{workload.name}/{metric.name}: worse by {worse_by:.1%} "
                    f"of A = {a['value']:.4g} {metric.unit} (bound {metric.bound:.0%})"
                )
    return rows, reasons


def main(args) -> int:
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    rows, reasons = compare(base, change)
    print(f"A = {args.base} (commit {base['meta']['commit'][:12]}, seed {base['meta']['seed']})")
    print(f"B = {args.change} (commit {change['meta']['commit'][:12]}, seed {change['meta']['seed']})")
    print(f"{'workload':<15}{'metric':<26}{'A median':>12}{'±':>7}{'B median':>12}"
          f"{'±':>7}  {'B/A (base A)':<22}{'bound':>6}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:.3f}x of {row['a']:.4g} {row['unit']}"
        print(f"{row['workload']:<15}{row['metric']:<26}{row['a']:>12.4g}"
              f"{row['a_spread']:>7.1%}{row['b']:>12.4g}{row['b_spread']:>7.1%}"
              f"  {ratio:<22}{row['bound']:>6.0%}  {row['verdict']}")
    for reason in reasons:
        print(f"REJECT {reason}")
    return 1 if reasons else 0
