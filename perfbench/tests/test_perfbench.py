"""Self-test of the benchmark harness: ``python -m pytest perfbench/tests``.

Outside the tier-1 ``testpaths`` on purpose: it checks the instrument,
not the program, and a smoke pass says nothing about performance.
"""

from __future__ import annotations

import copy
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import compare, spec
from perfbench.stats import median, percentile, quartiles, spread
from perfbench.trace import Tracer

PERFBENCH = Path(spec.__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_perfbench(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *argv], cwd=spec.REPO_ROOT,
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("smoke")
    start = time.monotonic()
    done = run_perfbench("run", "--smoke", "--out", str(out))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"smoke pass took {elapsed:.0f} s"
    return json.loads((out / "results.json").read_text())


# -- the one table -----------------------------------------------------------


def test_benchmark_json_is_generated_from_spec():
    assert spec.BENCHMARK_JSON.read_text() == spec.render_benchmark_json()


def test_readme_table_is_generated_from_spec():
    assert spec.render_prediction_table() in spec.README.read_text()


def test_benchmark_json_meets_the_contract_limits():
    doc = json.loads(spec.BENCHMARK_JSON.read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"], row["name"]
    for row in doc["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in doc["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    setup = next(row for row in doc["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in doc["end_to_end"])
    # 4 + 22 x workloads runs, each a few seconds over run_seconds, in 3420 s
    # with a margin of a sixth.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 5) <= 3420 * 5 / 6


def test_perfbench_uses_only_the_public_api():
    forbidden = re.compile(
        r"repro\.bench\b|\bbenchmarks\b|^\s*(from|import)\s+tests\b"
        r"|repro(\.\w+)*\._\w|from\s+repro[\w.]*\s+import\s+[^#\n]*\b_\w",
        re.MULTILINE,
    )
    for path in PERFBENCH.glob("*.py"):
        hit = forbidden.search(path.read_text())
        assert hit is None, f"{path.name}: {hit.group(0)!r}"


# -- the smoke pass ----------------------------------------------------------


def test_smoke_emits_every_workload_and_end_to_end_metric(smoke):
    doc = json.loads(spec.BENCHMARK_JSON.read_text())
    assert set(smoke["workloads"]) == {w.name for w in spec.WORKLOADS}
    assert {row["name"] for row in doc["workloads"]} == {
        w.name for w in spec.GATED_WORKLOADS} <= set(smoke["workloads"])
    for name, entry in smoke["workloads"].items():
        assert entry["correct"], (name, entry["errors"])
        assert entry["ops_failed"] == 0 and entry["ops_attempted"] > 0
        assert entry["affinity"] == [smoke["meta"]["pinned_to"]]
        for row in doc["end_to_end"]:
            measured = entry["end_to_end"][row["name"]]
            assert measured["unit"] == row["unit"]
            assert measured["value"] > 0 and measured["samples"] >= 1
    for key in ("commit", "python", "nproc", "allowed_cpus", "pinned_to", "seed"):
        assert key in smoke["meta"]


def test_traced_run_prints_every_per_layer_metric_on_its_last_line(tmp_path):
    done = run_perfbench("run", "--smoke", "--workload", "sync_shm", "--seed", "3",
                         "--trace", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in spec.CONTRACT_PER_LAYER}
    for metric in spec.CONTRACT_PER_LAYER:
        assert line["metrics"][metric.name]["unit"] == metric.unit
        assert isinstance(line["metrics"][metric.name]["value"], float)
    spans = json.loads((tmp_path / "trace-sync_shm.json").read_text())
    assert {"name", "start_ns", "end_ns", "parent", "offload_id"} == set(spans[0])
    restricted = json.loads((tmp_path / "results.json").read_text())[
        "workloads"]["sync_shm"]["per_layer"]
    assert restricted["backends.bytes_sent_per_offload"]["value"] > 0
    assert "backends.tcp.reactor_wakeups_per_offload" not in restricted


def test_wrong_kernel_result_is_counted_in_ops_failed(tmp_path):
    done = run_perfbench("run", "--smoke", "--workload", "sync_local",
                         "--fault", "wrong-result", "--out", str(tmp_path))
    assert done.returncode != 0
    entry = json.loads((tmp_path / "results.json").read_text())[
        "workloads"]["sync_local"]
    assert not entry["correct"]
    assert entry["ops_failed"] > 0
    assert "offload_p50_us" not in entry["end_to_end"]


# -- compare -----------------------------------------------------------------


def synthetic_results(p50: float, failed: int = 0) -> dict:
    row = lambda value: {  # noqa: E731
        "value": value, "spread": 0.02,
        "values": [value * f for f in (0.99, 1.0, 1.01)],
    }
    entry = {"ops_attempted": 1000, "ops_failed": failed,
             "end_to_end": {"offload_p50_us": row(p50), "offloads_per_s": row(1e6 / p50)}}
    return {"meta": {"commit": "synthetic", "seed": 1},
            "workloads": {"sync_shm": entry}}


def test_compare_flags_a_regression_beyond_the_bound_and_passes_2_percent():
    base = synthetic_results(100.0)
    beyond = 1 + max(spec.END_TO_END_BY_NAME[name].bound
                     for name in ("offload_p50_us", "offloads_per_s")) + 0.10
    rows, reasons = compare.compare(base, synthetic_results(100.0 * beyond))
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "offload_p50_us": "worse", "offloads_per_s": "worse"}
    assert len(reasons) == 2
    rows, reasons = compare.compare(base, synthetic_results(102.0))
    assert [r["verdict"] for r in rows] == ["ok", "ok"] and not reasons


def test_compare_reports_overlapping_noisy_runs_as_unresolved():
    base, change = synthetic_results(100.0), synthetic_results(110.0)
    noisy = change["workloads"]["sync_shm"]["end_to_end"]["offload_p50_us"]
    noisy["spread"], noisy["values"] = 0.5, [90.0, 110.0, 150.0]
    rows, reasons = compare.compare(base, change)
    assert rows[0]["verdict"] == "unresolved" and not reasons


def test_compare_rejects_a_higher_failed_share():
    base = synthetic_results(100.0)
    _rows, reasons = compare.compare(base, synthetic_results(100.0, failed=3))
    assert reasons and "ops_failed" in reasons[0]
    same = copy.deepcopy(base)
    assert compare.compare(base, same)[1] == []


# -- helpers -----------------------------------------------------------------


def test_percentile_helpers_match_the_standard_library():
    values = [13.0, 2.5, 8.0, 21.0, 1.0, 34.0, 5.0, 3.0, 55.0, 89.0, 144.0]
    assert median(values) == statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in (10, 25, 50, 90, 99):
        assert percentile(values, pct) == pytest.approx(cuts[pct - 1])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([7.0]) == (7.0, 7.0) and spread([7.0]) == 0.0


def test_self_time_is_the_span_minus_what_its_children_cover():
    tracer = Tracer()
    tracer.spans = [
        ["offload", 0, 10_000, -1, 0],
        ["f2f", 1_000, 3_000, 0, 0],
        ["get", 4_000, 9_000, 0, 0],
    ]
    assert tracer.self_times_us() == {"offload": 3.0, "f2f": 2.0, "get": 5.0}
