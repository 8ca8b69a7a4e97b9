"""Unit tests for the benchmarking framework (stats, harness, rendering)."""

import pytest

from repro.backends import LocalBackend
from repro.bench.breakdown import offload_breakdown
from repro.bench.figures import ascii_chart, render_series
from repro.bench.harness import measure_sim, scaled_reps
from repro.bench.stats import Stats
from repro.bench.tables import (
    format_bandwidth,
    format_size,
    format_time,
    render_table,
)
from repro.errors import BackendError
from repro.ham import f2f
from repro.offload import Runtime
from repro.sim import Simulator

from tests import apps


class TestStats:
    def test_from_samples(self):
        stats = Stats.from_samples([1.0, 2.0, 3.0])
        assert stats.n == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.std == pytest.approx(1.0)

    def test_single_sample(self):
        stats = Stats.from_samples([5.0])
        assert stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Stats.from_samples([])

    def test_bandwidth(self):
        stats = Stats.from_samples([0.5])
        assert stats.bandwidth(100) == pytest.approx(200.0)

    def test_bandwidth_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            Stats.from_samples([0.0]).bandwidth(1)


class TestHarness:
    def test_measure_sim_counts_only_measured_reps(self):
        sim = Simulator()
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            sim.run(until=sim.now + 1.0)

        stats = measure_sim(op, sim, reps=5, warmup=3)
        assert calls["n"] == 8
        assert stats.n == 5
        assert stats.mean == pytest.approx(1.0)

    def test_reps_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            measure_sim(lambda: None, sim, reps=0)

    def test_scaled_reps_shrinks_with_size(self):
        assert scaled_reps(8) == 50
        assert scaled_reps(256 * 2**20) == 3
        assert scaled_reps(8, base=10) == 10
        with pytest.raises(ValueError):
            scaled_reps(0)


class TestTables:
    def test_format_time_units(self):
        assert format_time(2e-6) == "2.00 us"
        assert format_time(1.5e-3) == "1.500 ms"
        assert format_time(2.5) == "2.500 s"
        assert format_time(-2e-6) == "-2.00 us"

    def test_format_bandwidth(self):
        assert format_bandwidth(2**30) == "1.00 GiB/s"

    def test_format_size(self):
        assert format_size(8) == "8 B"
        assert format_size(4096) == "4 KiB"
        assert format_size(2**21) == "2 MiB"
        assert format_size(2**30) == "1 GiB"
        assert format_size(2**10 + 1) == "1025 B"

    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        # All body lines equal width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_render_table_empty(self):
        assert "(empty)" in render_table([], title="X")

    def test_render_table_explicit_columns(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")


class TestFigures:
    def test_render_series(self):
        text = render_series(
            [8, 16], {"m1": [1.0, 2.0], "m2": [3.0, 4.0]}, title="F"
        )
        assert "8 B" in text and "16 B" in text
        assert "m1" in text and "m2" in text

    def test_render_series_nan_shown_as_dash(self):
        text = render_series([8], {"m": [float("nan")]})
        assert "-" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series([8, 16], {"m": [1.0]})

    def test_ascii_chart_contains_all_series_markers(self):
        text = ascii_chart(
            [1, 10, 100], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}
        )
        assert "*=a" in text and "o=b" in text
        grid = "\n".join(text.splitlines()[1:])
        assert "*" in grid and "o" in grid

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart([1], {"a": [float("nan")]})

    def test_ascii_chart_skips_nonpositive_on_log_axes(self):
        text = ascii_chart([1, 2], {"a": [0.0, 5.0]})
        assert text  # does not raise


class TestBreakdownHelper:
    def test_requires_simulated_backend(self):
        runtime = Runtime(LocalBackend())
        with pytest.raises(BackendError, match="simulated backend"):
            offload_breakdown(runtime, f2f(apps.empty_kernel))
        runtime.shutdown()
