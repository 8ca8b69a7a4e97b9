"""The paper-fidelity gate's mechanism, proven without reading a clock.

The gate itself is ``python -m pytest benchmarks -q`` followed by
``git diff --exit-code -- benchmarks/results`` (CONTRIBUTING.md, "Which
command gates what"): the committed reports are the baseline — exact,
two-sided, nothing to tune. That only holds while (a) reports and
``report(...)`` calls pair up one to one, (b) running a bench file
rewrites its report with the committed bytes, and (c) nothing in the
stack can read a wall clock.
"""

import ast
import collections
import os
import re
import shutil
import subprocess
import sys

from tests.fresh import ROOT

BENCHMARKS = ROOT / "benchmarks"
RESULTS = BENCHMARKS / "results"
BENCH_FILES = sorted(BENCHMARKS.glob("bench_*.py"))
#: The three cheapest experiments (~3 s together): Fig. 9 runs both
#: protocols on the simulated platform, the tables render the spec
#: database and the topology.
CHEAP = ["fig9_offload_cost", "table1_specs", "table3_system"]


def _trees(paths):
    return [(path, ast.parse(path.read_text())) for path in paths]


def test_every_report_has_one_writer_and_every_writer_its_report():
    written = collections.Counter()
    for path, tree in _trees(BENCH_FILES):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "report"
            ):
                name = node.args[0]
                assert isinstance(name, ast.Constant) and isinstance(name.value, str), (
                    f"{path.name}:{node.lineno}: report() needs a literal name"
                )
                written[name.value] += 1
    assert [name for name, count in written.items() if count != 1] == []
    # An orphan (a report nobody writes, a second baseline format) or a
    # missing golden: either way the diff would have nothing to bite on.
    assert sorted(path.name for path in RESULTS.iterdir()) == sorted(
        f"{name}.txt" for name in written
    )


def test_running_a_bench_file_rewrites_its_committed_report(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(
        BENCHMARKS, copy, ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        # no:benchmark — the files must run where pytest-benchmark is absent.
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "no:benchmark", *(f"bench_{name}.py" for name in CHEAP)],
        capture_output=True, text=True, timeout=120, env=env, cwd=copy,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    fresh = {path.name: path.read_bytes() for path in (copy / "results").iterdir()}
    assert fresh == {
        f"{name}.txt": (RESULTS / f"{name}.txt").read_bytes() for name in CHEAP
    }


#: Reading a wall clock, or timing a call whose figure nobody stores.
_CLOCK = re.compile(r"perf_counter|time\.time|process_time|measure_wall|\bbenchmark\(")


def test_nothing_under_the_gate_reads_a_wall_clock():
    sources = [*BENCHMARKS.glob("*.py"), *(ROOT / "src/repro/bench").glob("*.py")]
    for path, tree in _trees(sources):
        assert _CLOCK.search(path.read_text()) is None, path
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "time" not in [alias.name for alias in node.names], path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "time", path
            elif isinstance(node, ast.FunctionDef):
                # pytest-benchmark's fixture: a timing nobody stores.
                assert "benchmark" not in [arg.arg for arg in node.args.args], (
                    f"{path.name}:{node.lineno}"
                )
