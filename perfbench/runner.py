"""``python -m perfbench run``: children, aggregation, the printed report.

The runner never imports the product. It starts each child interpreter
(``perfbench.child``) in its own session with a hard wall-clock timeout,
kills the whole session afterwards whatever happened, unlinks a
``/dev/shm`` segment a killed child left behind, and folds the block
values of all children into one median per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench import spec
from perfbench.stats import median, quartiles, spread

OUT_DIR = Path(__file__).resolve().parent / "out"
UNPINNED_BANNER = """\
************************************************************************
* UNPINNED RUN: host, reactor thread and target float over all CPUs.   *
* The numbers include cross-vCPU wake-ups, do not repeat between runs, *
* and are NOT written to results.json. See README "Known findings".    *
************************************************************************"""


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        choices=[w.name for w in spec.WORKLOADS],
                        help="the workloads to run, in this order (default: all "
                        "seven, of which BENCHMARK.json gates five); with one, "
                        "the last line is the contract's JSON")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                        help="timed seconds per workload, split over "
                        f"{spec.CHILDREN} children x {spec.BLOCKS} blocks; the "
                        "traced pass gets half of it (default %(default)s)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: end-to-end pass only (default); 1: traced pass "
                        "only; bare --trace: both, end-to-end first")
    parser.add_argument("--smoke", action="store_true",
                        help="1 child x 1 block x 0.2 s: checks the harness, "
                        "not the program")
    parser.add_argument("--unpinned", action="store_true",
                        help="skip the CPU pinning (reproducer for the known "
                        "findings; excluded from results.json)")
    parser.add_argument("--fault", choices=["wrong-result"],
                        help="self-test: offload a kernel that replies i + 1")
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help="directory of results.json and trace-<workload>.json")


# -- one child --------------------------------------------------------------


def run_child(
    params: dict, timeout: float, hash_seed: int
) -> tuple[dict | None, str, bool]:
    """Run one child to its end or its timeout; ``(result, error, timed_out)``.

    The child leads its own session, so one ``killpg`` reaches the forked
    target and the resource tracker too; it is sent on every path, which
    is what guarantees that nothing started here outlives the call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(spec.REPO_ROOT / "src"), str(spec.REPO_ROOT)]
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    params = dict(params, spawned_at=time.time())
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(params)],
        cwd=spec.REPO_ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    error = ""
    timed_out = False
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        error = f"child exceeded its {timeout:.0f} s wall-clock limit and was killed"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if timed_out:
        stdout, stderr = child.communicate()
    events = []
    for line in stdout.splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    result = next((e for e in events if e.get("event") == "result"), None)
    tail = " | ".join(stderr.strip().splitlines()[-3:])
    if result is None:
        error = error or f"child exited with code {child.returncode} and no result"
        error = f"{error}: {tail}" if tail else error
        for event in events:
            if event.get("event") == "segment":
                # The owner died before it could unlink its rings.
                Path("/dev/shm", event["name"]).unlink(missing_ok=True)
    else:
        result["restart_errors"] = [
            f"{e['error']} (stderr: {tail})" if tail else e["error"]
            for e in events if e.get("event") == "restart"
        ]
    return result, error, timed_out


# -- one workload -----------------------------------------------------------


def summarize(metric: spec.Metric, values: list[float], samples: int) -> dict:
    q1, q3 = quartiles(values)
    return {
        "value": median(values), "unit": metric.unit, "spread": spread(values),
        "q1": q1, "q3": q3, "samples": samples, "values": values,
    }


def at_reference_speed(metric: spec.Metric, value: float, reference_us: float) -> float:
    """``value`` scaled to the nominal machine speed (see reference.py)."""
    if not metric.at_reference_speed:
        return value
    factor = spec.REFERENCE_NOMINAL_US / reference_us
    return value * (factor if metric.better == "lower" else 1 / factor)


def run_workload(workload: spec.Workload, args, plan: dict, cpu: int | None) -> dict:
    """Both passes of one workload, as the ``results.json`` entry."""
    rng = random.Random(f"{args.seed}/{workload.name}")
    entry: dict = {
        "ops_attempted": 0, "ops_failed": 0, "restarts": 0, "errors": [],
        "restart_errors": [], "affinity": None,
        "end_to_end": {}, "per_layer": {}, "diagnostics": {},
    }
    base = {"workload": workload.name, "cpu": cpu, "fault": args.fault}

    def child(params: dict, seconds: float) -> dict | None:
        """One child, re-run once if it dies: the second death is a failure."""
        params = dict(base, seed=rng.randrange(1 << 32), **params)
        hash_seed = rng.randrange(1 << 32)
        for attempt in (1, 2):
            result, error, timed_out = run_child(
                params, seconds + spec.CHILD_GRACE_SECONDS, hash_seed)
            if result is not None:
                break
            if attempt == 1 and not timed_out:
                entry["restarts"] += 1
                entry["restart_errors"].append(error)
                continue
            # A child that hangs or dies twice fails its workload, never the run.
            entry["ops_attempted"] += 1
            entry["ops_failed"] += 1
            entry["errors"].append(error)
            return None
        entry["ops_attempted"] += result["attempted"]
        entry["ops_failed"] += result["failed"]
        entry["restarts"] += result["restarts"]
        entry["restart_errors"] += result["restart_errors"]
        entry["affinity"] = result["affinity"]
        return result

    def check_paper(error_pct: float) -> None:
        if error_pct > spec.PAPER_TOLERANCE_PCT:
            entry["errors"].append(
                f"simulated costs deviate {error_pct:.2f} % from the paper")

    if args.trace in ("0", "both"):
        timed = {"trace": False, "blocks": plan["blocks"],
                 "seconds": plan["block_seconds"],
                 "warmup": plan["warmup"][workload.loop]}
        results = [
            child(timed, plan["blocks"] * plan["block_seconds"])
            for _ in range(plan["children"])
        ] + [
            child(dict(timed, blocks=0, warmup=0), 0.0)
            for _ in range(plan["setup_only_children"])
        ]
        results = [r for r in results if r is not None]
        blocks = [b for r in results for b in r["blocks"] if b["samples"]]
        if results:
            entry["diagnostics"]["finalize_s"] = median(
                [r["finalize_s"] for r in results])
        if blocks:
            # A set-up has no burst of its own: it is scaled by the speed
            # the machine showed over the run's blocks.
            run_reference = median([b["reference_us"] for b in blocks])
            samples = sum(b["samples"] for b in blocks)
            for metric in spec.END_TO_END:
                if metric.name == "setup_s":
                    raw = [r["setup_s"] for r in results]
                    scaled = [at_reference_speed(metric, v, run_reference) for v in raw]
                    row = summarize(metric, scaled, len(raw))
                else:
                    raw = [b[metric.name] for b in blocks]
                    scaled = [at_reference_speed(metric, b[metric.name], b["reference_us"])
                              for b in blocks]
                    row = summarize(metric, scaled, samples)
                row["raw_values"] = raw
                row["raw_value"] = median(raw)
                entry["end_to_end"][metric.name] = row
            entry["diagnostics"]["reference_us"] = run_reference
            for metric in spec.DIAGNOSTICS:
                if metric.name in blocks[0]:
                    entry["diagnostics"][metric.name] = median([
                        at_reference_speed(metric, b[metric.name], b["reference_us"])
                        for b in blocks])
            entry["reference_us"] = [b["reference_us"] for b in blocks]
        for result in results:
            if "sim" in result:
                entry["diagnostics"].update(result["sim"])
                check_paper(result["sim"]["sim.paper_error_pct"])
    if args.trace in ("1", "both"):
        trace_path = plan["out"] / f"trace-{workload.name}.json"
        result = child(
            {"trace": True, "seconds": plan["trace_seconds"],
             "warmup": plan["warmup"][workload.loop],
             "trace_path": None if args.unpinned else str(trace_path)},
            plan["trace_seconds"],
        )
        if result is not None:
            entry["per_layer"] = result["per_layer"]
            check_paper(result["per_layer"]["sim.paper_error_pct"]["value"])
    entry["correct"] = entry["ops_failed"] == 0 and not entry["errors"]
    return entry


# -- the report -------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: ops_attempted={entry['ops_attempted']} "
          f"ops_failed={entry['ops_failed']} restarts={entry['restarts']} "
          f"affinity={entry['affinity']} "
          f"{'correct' if entry['correct'] else 'NOT CORRECT'}")
    for error in entry["errors"]:
        print(f"   ! {error}")
    for error in entry["restart_errors"]:
        print(f"   ~ restarted after: {error}")
    if entry["end_to_end"]:
        print(f"   {'end-to-end metric':<28}{'median':>12} {'unit':<6}"
              f"{'spread':>8}{'samples':>10}{'raw median':>12}")
        for metric in spec.END_TO_END:
            row = entry["end_to_end"].get(metric.name)
            if row:
                print(f"   {metric.name:<28}{fmt(row['value']):>12} {metric.unit:<6}"
                      f"{row['spread']:>8.1%}{row['samples']:>10}"
                      f"{fmt(row['raw_value']):>12}")
        for key, value in entry["diagnostics"].items():
            print(f"   ({key} = {fmt(value)})")
    if entry["per_layer"]:
        print(f"   {'layer metric':<44}{'value':>12} {'unit':<6}{'samples':>10}")
        for metric in spec.PER_LAYER:
            row = entry["per_layer"].get(metric.name)
            if row:
                print(f"   {metric.name:<44}{fmt(row['value']):>12} "
                      f"{metric.unit:<6}{row['samples']:>10}")


def predictions(workloads: dict) -> list[dict]:
    """The prediction table's checkable rows, for the workloads that ran."""

    def e2e(workload: str, metric: str = "offload_p50_us") -> float | None:
        row = workloads.get(workload, {}).get("end_to_end", {}).get(metric)
        return row["value"] if row else None

    def layer(workload: str, metric: str) -> float | None:
        row = workloads.get(workload, {}).get("per_layer", {}).get(metric)
        return row["value"] if row else None

    rows = []
    plain, traced = e2e("sync_shm"), e2e("traced_shm")
    if plain is not None and traced is not None:
        rows.append({
            "claim": "telemetry.per_offload_us > 0 (traced_shm - sync_shm)",
            "value": traced - plain, "unit": "us", "holds": traced > plain,
        })
    local = e2e("sync_local")
    parts = [layer("sync_local", f"ham.{n}_ns") for n in
             ("f2f", "build_invoke", "execute", "unpack_result")]
    if local is not None and None not in parts:
        share = sum(parts) / 1e3 / local
        rows.append({
            "claim": "ham f2f+build_invoke+execute+unpack_result within 25 % of "
                     "offload_p50_us on sync_local",
            "value": share * 100, "unit": "%", "holds": abs(share - 1) <= 0.25,
        })
    for name in ("sync_local", "sync_shm", "sync_tcp"):
        ping, p50 = layer(name, "backends.ping_p50_us"), e2e(name)
        if ping is not None and p50 is not None:
            rows.append({
                "claim": f"backends.ping_p50_us < offload_p50_us on {name}",
                "value": ping, "unit": "us", "holds": ping < p50,
            })
    return rows


def contract_line(entry: dict, trace: str) -> str | None:
    """The last stdout line the benchmark contract asks for, if complete."""
    if trace == "0":
        wanted, rows = spec.END_TO_END, entry["end_to_end"]
    else:
        wanted, rows = spec.CONTRACT_PER_LAYER, entry["per_layer"]
    if any(m.name not in rows for m in wanted):
        return None
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": {
            m.name: {"value": rows[m.name]["value"], "unit": m.unit} for m in wanted
        },
    })


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(args) -> int:
    if not (spec.REPO_ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {spec.REPO_ROOT / 'src'}",
              file=sys.stderr)
        return 2
    allowed = sorted(os.sched_getaffinity(0))
    cpu = None if args.unpinned else allowed[-1]
    if args.unpinned:
        print(UNPINNED_BANNER)
    plan = {
        "children": spec.CHILDREN, "blocks": spec.BLOCKS,
        "setup_only_children": spec.SETUP_ONLY_CHILDREN,
        "block_seconds": args.seconds / (spec.CHILDREN * spec.BLOCKS),
        "trace_seconds": args.seconds / 2, "warmup": spec.WARMUP_OFFLOADS,
        "out": args.out.resolve(),
    }
    if args.smoke:
        plan.update(children=1, setup_only_children=0, blocks=1,
                    block_seconds=0.2, trace_seconds=1.0,
                    warmup={loop: 20 for loop in spec.WARMUP_OFFLOADS})
    selected = [spec.WORKLOAD_BY_NAME[name] for name in args.workload or
                [w.name for w in spec.WORKLOADS]]
    started = time.time()
    print(f"perfbench: seed={args.seed} nproc={os.cpu_count()} allowed_cpus={allowed} "
          f"pinned_to={cpu} children={plan['children']} blocks={plan['blocks']} "
          f"block_seconds={plan['block_seconds']:.3g} trace={args.trace}")
    workloads = {}
    for workload in selected:
        workloads[workload.name] = run_workload(workload, args, plan, cpu)
        print_workload(workload.name, workloads[workload.name])
    checks = predictions(workloads)
    if checks:
        print("\n== predictions")
        for row in checks:
            print(f"   {'holds' if row['holds'] else 'DOES NOT HOLD':<14}"
                  f"{row['claim']}: {fmt(row['value'])} {row['unit']}")
    if not args.unpinned:
        plan["out"].mkdir(parents=True, exist_ok=True)
        results = {
            "meta": {
                "commit": git_commit(), "python": platform.python_version(),
                "nproc": os.cpu_count(), "allowed_cpus": allowed, "pinned_to": cpu,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "smoke": args.smoke, "children": plan["children"],
                "blocks": plan["blocks"], "block_seconds": plan["block_seconds"],
                "started_at": started, "wall_s": time.time() - started,
            },
            "workloads": workloads,
            "predictions": checks,
        }
        path = plan["out"] / "results.json"
        path.write_text(json.dumps(results, indent=1) + "\n")
        print(f"\nperfbench: wrote {path} in {time.time() - started:.0f} s")
    if len(selected) == 1 and args.trace != "both":
        line = contract_line(workloads[selected[0].name], args.trace)
        if line is None:
            print("perfbench: the run produced no complete set of metrics",
                  file=sys.stderr)
            return 1
        print(line)
        return 0
    complete = all(
        contract_line(entry, trace) is not None
        for entry in workloads.values()
        for trace in (("0", "1") if args.trace == "both" else (args.trace,))
    )
    return 0 if complete else 1
