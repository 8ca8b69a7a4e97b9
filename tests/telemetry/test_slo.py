"""SLO declarations and multi-window burn-rate alerting."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import SLO, SLOMonitor, default_slos


def latency_slo(**overrides):
    base = dict(name="lat", threshold_ns=1000, objective=0.9)
    base.update(overrides)
    return SLO(**base)


def tight_monitor(slo=None, **overrides):
    """Small windows so a handful of observes moves the burn rates."""
    base = dict(fast_window=10, slow_window=20, min_samples=5)
    base.update(overrides)
    return SLOMonitor((slo or latency_slo(),), **base)


class TestSLO:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            SLO(name="", threshold_ns=1, objective=0.9)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_objective_must_be_open_unit_interval(self, objective):
        with pytest.raises(ValueError, match="objective"):
            latency_slo(objective=objective)

    @pytest.mark.parametrize("threshold_ns", [0, -1])
    def test_threshold_must_be_positive_when_set(self, threshold_ns):
        with pytest.raises(ValueError, match="threshold_ns"):
            latency_slo(threshold_ns=threshold_ns)

    def test_latency_slo_bad_on_slow_or_error(self):
        mon = tight_monitor(latency_slo(threshold_ns=1000))
        mon.observe(1000)  # at threshold is good
        assert mon.snapshot()["lat"]["bad"] == 0
        mon.observe(1001)
        mon.observe(1, error=True)
        assert mon.snapshot()["lat"]["bad"] == 2

    def test_availability_slo_bad_only_on_error(self):
        mon = tight_monitor(latency_slo(threshold_ns=None))
        mon.observe(10**12)
        assert mon.snapshot()["lat"]["bad"] == 0
        mon.observe(0, error=True)
        assert mon.snapshot()["lat"]["bad"] == 1

    def test_default_slos_cover_latency_and_availability(self):
        slos = default_slos()
        thresholds = {s.threshold_ns is None for s in slos}
        assert thresholds == {True, False}


class TestMonitorValidation:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOMonitor((latency_slo(), latency_slo(objective=0.5)))

    @pytest.mark.parametrize("fast,slow", [(0, 10), (20, 10)])
    def test_rejects_bad_windows(self, fast, slow):
        with pytest.raises(ValueError, match="fast_window"):
            SLOMonitor((latency_slo(),), fast_window=fast, slow_window=slow)

    def test_rejects_nonpositive_burn_threshold(self):
        with pytest.raises(ValueError, match="burn_threshold"):
            SLOMonitor((latency_slo(),), burn_threshold=0.0)

    def test_defaults_to_default_slos(self):
        assert {s.name for s in SLOMonitor().slos} == {
            s.name for s in default_slos()
        }


class TestBurnRateAlerting:
    def test_burn_math(self):
        mon = tight_monitor()
        for _ in range(8):
            mon.observe(500)
        mon.observe(500, error=True)
        mon.observe(500, error=True)
        state = mon.snapshot()["lat"]
        # budget 0.1; fast window holds 10 ops, 2 bad -> burn 2.0.
        assert state["fast_burn"] == pytest.approx(2.0)
        assert state["slow_burn"] == pytest.approx(2.0)
        assert state["total"] == 10
        assert state["bad"] == 2

    def test_breach_fires_once_and_recovery_follows(self):
        events = []

        def emit(name, **attrs):
            events.append((name, attrs))

        mon = tight_monitor(emit=emit)
        for _ in range(5):
            mon.observe(5000)  # all bad: burn 10x
        assert [name for name, _ in events] == ["telemetry.slo_breach"]
        name, attrs = events[0]
        assert attrs["slo"] == "lat"
        assert attrs["fast_burn"] >= 2.0
        assert attrs["objective"] == 0.9
        assert mon.breached() == ["lat"]

        # Good traffic washes the fast window clean -> one recovery.
        for _ in range(15):
            mon.observe(10)
        assert [name for name, _ in events] == [
            "telemetry.slo_breach", "telemetry.slo_recovered",
        ]
        assert mon.breached() == []

    def test_min_samples_guards_cold_start(self):
        mon = tight_monitor(min_samples=5)
        for _ in range(4):
            mon.observe(5000)
        assert mon.breached() == []
        mon.observe(5000)
        assert mon.breached() == ["lat"]

    def test_slow_window_filters_blips(self):
        # A burst that saturates the fast window but not the slow one
        # must not page: both windows have to burn hot.
        mon = tight_monitor(fast_window=5, slow_window=100, min_samples=5,
                            slo=latency_slo(objective=0.5))
        for _ in range(95):
            mon.observe(10)
        for _ in range(5):
            mon.observe(5000)
        state = mon.snapshot()["lat"]
        assert state["fast_burn"] >= 2.0
        assert state["slow_burn"] < 2.0
        assert mon.breached() == []

    def test_window_counts_match_brute_force(self):
        # The O(1) incremental bad counts must agree with recounting the
        # retained window after arbitrary eviction traffic.
        mon = tight_monitor(fast_window=7, slow_window=13)
        pattern = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1]
        for bad in pattern:
            mon.observe(5000 if bad else 10)
        (state,) = mon._states.values()
        assert state.fast_bad == sum(pattern[-7:])
        assert state.slow_bad == sum(pattern[-13:])
        assert len(state.fast) == 7
        assert len(state.slow) == 13


class TestGaugeExport:
    def test_burn_gauges_land_in_metrics_snapshot(self):
        reg = MetricsRegistry()
        mon = tight_monitor(metrics=reg)
        for _ in range(5):
            mon.observe(5000)
        gauges = reg.snapshot()["gauges"]
        assert gauges["slo.lat.fast_burn"] >= 2.0
        assert gauges["slo.lat.slow_burn"] >= 2.0
        assert gauges["slo.lat.breached"] == 1.0

    def test_snapshot_shape(self):
        mon = tight_monitor()
        mon.observe(10)
        state = mon.snapshot()["lat"]
        assert state == {
            "threshold_ns": 1000,
            "objective": 0.9,
            "total": 1,
            "bad": 0,
            "fast_burn": 0.0,
            "slow_burn": 0.0,
            "breached": False,
        }
