"""HealthMonitor state mirrored onto the metrics snapshot's gauges."""

from __future__ import annotations

from repro.offload.resilience import HealthMonitor, ResiliencePolicy
from repro.telemetry import recorder as telemetry

POLICY = ResiliencePolicy(degraded_after=1, down_after=3)


class TestHealthGauges:
    def test_state_machine_mirrors_onto_gauges(self):
        recorder = telemetry.enable()
        monitor = HealthMonitor(POLICY)
        monitor.record_success(1)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.1"] == 0
        assert gauges["health.consecutive_failures.1"] == 0

        monitor.record_failure(1)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.1"] == 1  # degraded
        assert gauges["health.consecutive_failures.1"] == 1

        monitor.record_failure(1)
        monitor.record_failure(1)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.1"] == 2  # down
        assert gauges["health.consecutive_failures.1"] == 3

        # Recovery snaps both gauges back.
        monitor.record_success(1)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.1"] == 0
        assert gauges["health.consecutive_failures.1"] == 0

    def test_gauges_are_per_node(self):
        recorder = telemetry.enable()
        monitor = HealthMonitor(POLICY)
        monitor.record_failure(1)
        monitor.record_success(2)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.1"] == 1
        assert gauges["health.node_state.2"] == 0

    def test_reads_in_the_metrics_snapshot(self):
        recorder = telemetry.enable()
        monitor = HealthMonitor(POLICY)
        monitor.record_failure(3)
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["health.node_state.3"] == 1
        assert gauges["health.consecutive_failures.3"] == 1

    def test_no_recorder_no_crash(self):
        telemetry.disable()
        monitor = HealthMonitor(POLICY)
        monitor.record_failure(1)
        monitor.record_success(1)
