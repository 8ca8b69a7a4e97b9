"""Unit tests for the metric instruments and percentile math."""

import threading

import numpy as np
import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_matches_numpy(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0, 25, 50, 75, 95, 100):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q))
            )

    def test_single_sample(self):
        assert percentile([7.0], 95) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safe(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(10)
        g.add(-2.5)
        assert g.value == 7.5


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.log_histogram("c") is reg.log_histogram("c")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc(2)
        reg.gauge("queue.depth").set(3)
        reg.log_histogram("latency").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"offload.issued": 2}
        assert snap["gauges"] == {"queue.depth": 3.0}
        assert snap["histograms"]["latency"]["count"] == 1

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
