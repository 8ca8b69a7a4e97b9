"""Tests for the perf-regression gate (repro.bench.regression)."""

import json

import pytest

from repro.bench.regression import (
    compare_dirs,
    direction_for,
    flatten_metrics,
    main,
)


def write_bench(directory, name, data):
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": 1, "experiment": name, "data": data}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


class TestDirections:
    def test_times_regress_upward(self):
        assert direction_for("BENCH_fig9/stats/ham_dma/median") == "lower"
        assert direction_for("x/offload_cost") == "lower"
        assert direction_for("suite/latency/p95") == "lower"

    def test_bandwidths_regress_downward(self):
        assert direction_for("BENCH_table4/peaks/shm") == "higher"
        assert direction_for("suite/bandwidth/1024") == "higher"
        assert direction_for("BENCH_scaling/multi_ve/4") == "higher"

    def test_lower_tokens_win_over_higher(self):
        # A time inside a bandwidth suite is still a time.
        assert direction_for("BENCH_fig10/setup_time") == "lower"

    def test_unknown_is_two_sided(self):
        assert direction_for("mystery/metric") == "both"


class TestFlatten:
    def test_nested_dicts_flatten_to_paths(self):
        metrics = flatten_metrics(
            {"data": {"a": {"b": 1.5, "c": 2}, "d": 3.0}}, "BENCH_x"
        )
        assert metrics == {
            "BENCH_x/a/b": 1.5, "BENCH_x/a/c": 2.0, "BENCH_x/d": 3.0,
        }

    def test_lists_collapse_to_median(self):
        metrics = flatten_metrics({"data": {"curve": [1.0, 9.0, 5.0]}}, "B")
        assert metrics == {"B/curve[median]": 5.0}

    def test_non_numeric_leaves_skipped(self):
        metrics = flatten_metrics(
            {"data": {"label": "text", "flag": True, "n": 7}}, "B"
        )
        assert metrics == {"B/n": 7.0}

    def test_run_parameters_are_not_metrics(self):
        # A --quick run against a full baseline differs in what it was
        # given (rounds, invokes, depths), which is no regression.
        metrics = flatten_metrics(
            {"data": {"x": {"params": {"invokes": 40, "depths": [1, 2]},
                            "mean_us": 3.0}}}, "B"
        )
        assert metrics == {"B/x/mean_us": 3.0}


class TestCompare:
    def test_identical_dirs_all_ok(self, tmp_path):
        data = {"costs": {"dma": 1e-6}}
        write_bench(tmp_path / "base", "numa", data)
        write_bench(tmp_path / "fresh", "numa", data)
        comparisons = compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)
        assert [c.status for c in comparisons] == ["ok"]

    def test_time_increase_regresses(self, tmp_path):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 1e-6}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 2e-6}})
        (comparison,) = compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)
        assert comparison.status == "regressed"
        assert comparison.delta == pytest.approx(1.0)

    def test_time_decrease_improves(self, tmp_path):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 2e-6}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 1e-6}})
        (comparison,) = compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)
        assert comparison.status == "improved"

    def test_bandwidth_drop_regresses(self, tmp_path):
        write_bench(tmp_path / "base", "table4", {"peaks": {"shm": 100.0}})
        write_bench(tmp_path / "fresh", "table4", {"peaks": {"shm": 50.0}})
        (comparison,) = compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)
        assert comparison.status == "regressed"

    def test_within_tolerance_is_ok(self, tmp_path):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 100.0}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 104.0}})
        (comparison,) = compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)
        assert comparison.status == "ok"

    def test_missing_and_new_metrics(self, tmp_path):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 1.0}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"veo": 2.0}})
        statuses = {c.path: c.status for c in
                    compare_dirs(tmp_path / "base", tmp_path / "fresh", 0.05)}
        assert statuses["BENCH_numa/costs/dma"] == "missing"
        assert statuses["BENCH_numa/costs/veo"] == "new"


class TestCli:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        data = {"costs": {"dma": 1.0}}
        write_bench(tmp_path / "base", "numa", data)
        write_bench(tmp_path / "fresh", "numa", data)
        code = main(["--fresh", str(tmp_path / "fresh"),
                     "--baseline", str(tmp_path / "base")])
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 1.0}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 10.0}})
        code = main(["--fresh", str(tmp_path / "fresh"),
                     "--baseline", str(tmp_path / "base")])
        assert code == 1
        assert "regressed" in capsys.readouterr().out

    def test_exit_two_without_baseline(self, tmp_path, capsys):
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 1.0}})
        code = main(["--fresh", str(tmp_path / "fresh"),
                     "--baseline", str(tmp_path / "missing")])
        assert code == 2
        assert "--update-baseline" in capsys.readouterr().out

    def test_update_baseline_creates_files(self, tmp_path):
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 1.0}})
        baseline = tmp_path / "base"
        assert main(["--fresh", str(tmp_path / "fresh"),
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        assert (baseline / "BENCH_numa.json").exists()
        # And a subsequent comparison is clean.
        assert main(["--fresh", str(tmp_path / "fresh"),
                     "--baseline", str(baseline)]) == 0

    def test_errors_without_fresh_files(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--fresh", str(tmp_path / "nope")])

    def test_wider_tolerance_accepts_shift(self, tmp_path):
        write_bench(tmp_path / "base", "numa", {"costs": {"dma": 1.0}})
        write_bench(tmp_path / "fresh", "numa", {"costs": {"dma": 1.2}})
        args = ["--fresh", str(tmp_path / "fresh"),
                "--baseline", str(tmp_path / "base")]
        assert main(args) == 1
        assert main(args + ["--tolerance", "0.5"]) == 0


class TestCommittedBaseline:
    def test_repo_baseline_exists_and_parses(self):
        import pathlib

        baseline = pathlib.Path(__file__).parents[2] / \
            "benchmarks" / "results" / "baseline"
        files = sorted(baseline.glob("BENCH_*.json"))
        assert files, "committed bench baseline is missing"
        for file in files:
            payload = json.loads(file.read_text())
            assert flatten_metrics(payload, file.stem)
