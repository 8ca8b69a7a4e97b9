"""Log-bucketed histograms and the per-kernel ``report --profile`` table."""

import pytest

from repro.telemetry.metrics import LogHistogram, MetricsRegistry
from repro.telemetry.report import render_profile_table
from repro.telemetry.signals import SIGNALS


class TestLogHistogram:
    def test_lifetime_stats(self):
        hist = LogHistogram()
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(0.002)
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.003)

    def test_empty_summary_is_all_zeros(self):
        summary = LogHistogram().summary()
        assert summary == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                           "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentiles_clamp_to_observed_range(self):
        hist = LogHistogram()
        hist.observe(0.0015)
        # Interpolating within the winning bucket must never leave the
        # [min, max] envelope, however coarse the bucket.
        assert hist.percentile(0) == pytest.approx(0.0015)
        assert hist.percentile(50) == pytest.approx(0.0015)
        assert hist.percentile(100) == pytest.approx(0.0015)

    def test_percentile_ordering(self):
        hist = LogHistogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)
        p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
        assert p50 <= p95 <= p99
        assert 0.03 < p50 < 0.08
        assert p99 <= 0.1

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="percentile"):
            LogHistogram().percentile(101)

    def test_custom_bounds_validated(self):
        with pytest.raises(ValueError, match="increasing"):
            LogHistogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            LogHistogram(bounds=(0.0, 1.0))

    def test_registry_get_or_create_and_type_guard(self):
        reg = MetricsRegistry(SIGNALS)
        hist = reg.log_histogram("phase.offload.offload")
        assert reg.log_histogram("phase.offload.offload") is hist
        with pytest.raises(TypeError, match="declared as a histogram"):
            reg.counter("phase.offload.offload")
        with pytest.raises(TypeError, match="declared as a counter"):
            reg.log_histogram("offload.issued")


class TestRenderProfileTable:
    @staticmethod
    def _snapshot(*specs):
        """specs: (name, durations_ns...) -> ``profile_from_records`` shape."""
        snapshot = {}
        for name, *durations in specs:
            hist = LogHistogram()
            for duration in durations:
                hist.observe(duration / 1e9)
            snapshot[name] = {
                "kernel": name, "count": hist.count, "errors": 0, "bytes": 0,
                "phases": {"offload": hist.summary()},
            }
        return snapshot

    def test_empty_snapshot_message(self):
        assert render_profile_table({}) == "no kernel profiles recorded"

    def test_rejects_unknown_sort(self):
        with pytest.raises(ValueError, match="sort_by"):
            render_profile_table({}, sort_by="bytes")

    def test_total_vs_tail_ranking_flip(self):
        # many-fast dominates cumulative time; few-slow dominates p99.
        snapshot = self._snapshot(
            ("many_fast", *([1_000_000] * 50)),   # 50 ms total, 1 ms tail
            ("few_slow", 20_000_000),             # 20 ms total, 20 ms tail
        )
        by_total = render_profile_table(snapshot, sort_by="total").splitlines()
        by_tail = render_profile_table(snapshot, sort_by="tail").splitlines()
        assert by_total[2].startswith("many_fast")
        assert by_tail[2].startswith("few_slow")

    def test_partial_json_snapshot_renders_with_defaults(self):
        rows = render_profile_table({"k": {}}).splitlines()
        assert rows[0].split() == ["kernel", "count", "errors", "bytes",
                                   "total_s", "p50_ms", "p95_ms", "p99_ms"]
        assert rows[2].split() == ["k", "0", "0", "0", "0.0000", "0.000",
                                   "0.000", "0.000"]

    def test_limit_truncates_rows(self):
        snapshot = self._snapshot(("a", 1000), ("b", 1000), ("c", 1000))
        table = render_profile_table(snapshot, limit=1)
        assert len(table.splitlines()) == 3  # header + rule + one row
