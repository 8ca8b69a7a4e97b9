"""Perf-regression gate — ``python -m repro.bench.regression``.

Compares a directory of freshly produced ``BENCH_*.json`` payloads (from
``python -m repro.bench.cli ... --json-dir``) against a committed
baseline directory and exits non-zero when a metric regressed beyond the
tolerance band. The benchmark harness runs on simulated time, so quick
runs are deterministic and the default band is tight; on real hardware a
wider ``--tolerance`` absorbs noise.

Usage::

    python -m repro.bench.cli all --quick --json-dir /tmp/bench
    python -m repro.bench.regression --fresh /tmp/bench \
        --baseline benchmarks/results/baseline
    # refresh the committed baseline after an intentional perf change:
    python -m repro.bench.regression --fresh /tmp/bench \
        --baseline benchmarks/results/baseline --update-baseline

Every numeric leaf of each payload's ``data`` tree is one metric (lists
are compared by their median, so sweep curves collapse to one number per
series), except under a ``params`` key: run parameters differ between a
``--quick`` run and a full baseline without anything having regressed.
Whether a shift is a regression depends on the metric's direction,
inferred from its path: times/costs/latencies regress when they go *up*,
bandwidths/rates/peaks when they go *down*; unrecognized metrics are
held two-sided.
"""

from __future__ import annotations

import argparse
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.bench.tables import render_table
from repro.telemetry.metrics import percentile

__all__ = [
    "Comparison",
    "compare_dirs",
    "direction_for",
    "flatten_metrics",
    "main",
]

#: Path tokens implying "smaller is better" (times and costs).
_LOWER_BETTER = (
    "time", "cost", "latency", "duration", "overhead", "seconds",
    "fig9", "numa",
)
#: Path tokens implying "larger is better" (bandwidths and rates).
_HIGHER_BETTER = (
    "bandwidth", "throughput", "rate", "peak", "contention", "multi_ve",
    "speedup", "fig10", "table4", "scaling", "dma_manager", "hugepage",
    "pipeline",
)


def direction_for(path: str) -> str:
    """``"lower"`` / ``"higher"`` / ``"both"`` for a metric path.

    Checked against the full path (file stem included), lower-better
    tokens first: a time measured inside a bandwidth suite is still a
    time.
    """
    lowered = path.lower()
    if any(token in lowered for token in _LOWER_BETTER):
        return "lower"
    if any(token in lowered for token in _HIGHER_BETTER):
        return "higher"
    return "both"


def _walk(obj: Any, path: str) -> Iterator[tuple[str, float]]:
    if isinstance(obj, dict):
        for key in sorted(obj):
            if key != "params":  # what a run was given, not what it measured
                yield from _walk(obj[key], f"{path}/{key}")
    elif isinstance(obj, (list, tuple)):
        numbers = [v for v in obj if isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        if numbers:
            yield f"{path}[median]", percentile(numbers, 50)
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        yield path, float(obj)


def flatten_metrics(payload: dict, stem: str) -> dict[str, float]:
    """``{metric_path: value}`` for one BENCH payload's ``data`` tree."""
    return dict(_walk(payload.get("data", {}), stem))


@dataclass(frozen=True)
class Comparison:
    """One metric's baseline-vs-fresh verdict."""

    path: str
    baseline: float | None
    fresh: float | None
    delta: float  # signed relative change, fresh vs baseline
    direction: str
    status: str  # "ok" | "improved" | "regressed" | "missing" | "new"


def _compare_metric(
    path: str, baseline: float | None, fresh: float | None, tolerance: float
) -> Comparison:
    direction = direction_for(path)
    if baseline is None:
        return Comparison(path, None, fresh, 0.0, direction, "new")
    if fresh is None:
        return Comparison(path, baseline, None, 0.0, direction, "missing")
    if baseline == 0.0:
        delta = 0.0 if fresh == 0.0 else float("inf")
    else:
        delta = (fresh - baseline) / abs(baseline)
    if abs(delta) <= tolerance:
        status = "ok"
    elif direction == "lower":
        status = "regressed" if delta > 0 else "improved"
    elif direction == "higher":
        status = "regressed" if delta < 0 else "improved"
    else:
        status = "regressed"
    return Comparison(path, baseline, fresh, delta, direction, status)


def _load_dir(directory: Path) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for file in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(file.read_text())
        metrics.update(flatten_metrics(payload, file.stem))
    return metrics


def compare_dirs(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> list[Comparison]:
    """Compare every metric of two BENCH directories."""
    baseline = _load_dir(baseline_dir)
    fresh = _load_dir(fresh_dir)
    return [
        _compare_metric(path, baseline.get(path), fresh.get(path), tolerance)
        for path in sorted(set(baseline) | set(fresh))
    ]


def _render(comparisons: list[Comparison], verbose: bool) -> str:
    rows = []
    for comparison in comparisons:
        if not verbose and comparison.status == "ok":
            continue
        rows.append({
            "metric": comparison.path,
            "baseline": "-" if comparison.baseline is None
            else f"{comparison.baseline:.6g}",
            "fresh": "-" if comparison.fresh is None
            else f"{comparison.fresh:.6g}",
            "delta": f"{comparison.delta:+.2%}",
            "dir": comparison.direction,
            "status": comparison.status,
        })
    if not rows:
        return "all metrics within tolerance"
    return render_table(rows, title="bench regression check")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code (1 on regression)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-regression",
        description="Compare fresh BENCH_*.json files against a committed "
        "baseline; non-zero exit on regression.",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", type=Path,
        default=Path("benchmarks/results/baseline"),
        help="committed baseline directory (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative tolerance band per metric (default: %(default)s)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="copy the fresh BENCH files over the baseline and exit 0",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list metrics that stayed within tolerance",
    )
    args = parser.parse_args(argv)
    fresh_files = sorted(args.fresh.glob("BENCH_*.json")) \
        if args.fresh.is_dir() else []
    if not fresh_files:
        parser.error(f"no BENCH_*.json files in {args.fresh}")
    if args.update_baseline:
        args.baseline.mkdir(parents=True, exist_ok=True)
        for file in fresh_files:
            shutil.copy2(file, args.baseline / file.name)
        print(f"baseline updated: {len(fresh_files)} files -> {args.baseline}")
        return 0
    if not args.baseline.is_dir() or not list(args.baseline.glob("BENCH_*.json")):
        print(f"no baseline in {args.baseline}; "
              "run with --update-baseline to create one")
        return 2
    comparisons = compare_dirs(args.baseline, args.fresh, args.tolerance)
    print(_render(comparisons, args.verbose))
    regressed = [c for c in comparisons if c.status in ("regressed", "missing")]
    ok = sum(1 for c in comparisons if c.status == "ok")
    improved = sum(1 for c in comparisons if c.status == "improved")
    new = sum(1 for c in comparisons if c.status == "new")
    print(f"\n{len(comparisons)} metrics: {ok} ok, {improved} improved, "
          f"{new} new, {len(regressed)} regressed/missing "
          f"(tolerance {args.tolerance:.0%})")
    return 1 if regressed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
