"""End-to-end tests: the instrumented offload path produces real traces."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.backends.faulty import FaultInjectingBackend
from repro.backends.local import LocalBackend
from repro.errors import InjectedFaultError
from repro.ham import f2f
from repro.offload import Runtime
from repro.offload import api as offload_api
from repro.offload.resilience import HealthMonitor, NodeHealth, ResiliencePolicy
from repro.telemetry import recorder as telemetry
from repro.telemetry.export import to_chrome, write_chrome_trace

from tests import apps

#: The tentpole's phase taxonomy for one offload (host-side names).
HOST_PHASES = {
    "offload.serialize",
    "offload.transport",
    "offload.deserialize",
}


class TestLocalBackendPhases:
    def test_sync_offload_produces_phase_spans(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        assert rt.sync(1, f2f(apps.add, 1, 2)) == 3
        rt.shutdown()
        names = {r.name for r in rec.spans()}
        assert HOST_PHASES <= names
        assert "offload.execute" in names  # in-process target

    def test_execute_nests_under_transport(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        rt.sync(1, f2f(apps.add, 1, 2))
        rt.shutdown()
        transport = next(r for r in rec.spans("offload.transport"))
        execute = next(r for r in rec.spans("offload.execute"))
        assert execute.parent_id == transport.span_id

    def test_counters_track_offload_outcomes(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        for _ in range(3):
            rt.sync(1, f2f(apps.empty_kernel))
        rt.shutdown()
        snapshot = rec.metrics.snapshot()
        assert snapshot["counters"]["offload.issued"] == 3
        assert snapshot["counters"]["future.settled"] == 3
        kernel = f2f(apps.empty_kernel).type_name
        assert snapshot["histograms"][f"kernel.{kernel}.offload"]["count"] == 3
        assert f"kernel.{kernel}.errors" not in snapshot["counters"]

    def test_data_transfer_spans_and_byte_counters(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        ptr = rt.allocate(1, 32)
        rt.put(np.zeros(32), ptr)
        out = np.empty(32)
        rt.get(ptr, out)
        rt.free(ptr)
        assert rt.stats()["live_buffers"] == 0
        rt.shutdown()
        names = {r.name for r in rec.spans()}
        assert {"offload.allocate", "data.put", "data.get", "offload.free"} <= names
        counters = rec.metrics.snapshot()["counters"]
        assert counters["data.bytes_put"] == 32 * 8
        assert counters["data.bytes_got"] == 32 * 8

    def test_remote_error_tagged_on_execute_span(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        with pytest.raises(Exception, match="boom"):
            rt.sync(1, f2f(apps.raise_value_error, "boom"))
        rt.shutdown()
        (execute,) = rec.spans("offload.execute")
        assert execute.attrs["error"] == "ValueError"
        kernel = f2f(apps.raise_value_error, "boom").type_name
        counters = rec.metrics.snapshot()["counters"]
        assert counters[f"kernel.{kernel}.errors"] == 1

    def test_disabled_telemetry_leaves_no_trace(self):
        rt = Runtime(LocalBackend())
        rt.sync(1, f2f(apps.add, 1, 2))
        rt.shutdown()
        rec = telemetry.enable()
        assert rec.records() == []


class TestApiInit:
    def test_init_telemetry_flag_enables_recorder(self):
        try:
            offload_api.init(LocalBackend(), telemetry=True)
            assert telemetry.enabled()
            assert offload_api.sync(1, f2f(apps.add, 2, 2)) == 4
            assert telemetry.get().spans("offload.")
        finally:
            offload_api.finalize()

    def test_init_default_keeps_telemetry_off(self):
        try:
            offload_api.init(LocalBackend())
            assert not telemetry.enabled()
        finally:
            offload_api.finalize()


class TestFaultAndResilienceEvents:
    def test_injected_fault_emits_event(self):
        rec = telemetry.enable()
        backend = FaultInjectingBackend(LocalBackend(), schedule={0: "drop"})
        rt = Runtime(backend)
        with pytest.raises(InjectedFaultError):
            rt.sync(1, f2f(apps.empty_kernel))
        rt.shutdown()
        (event,) = rec.events("fault.injected")
        assert event.attrs["kind"] == "drop"
        assert backend.stats()["faults_injected"] == 1

    def test_retry_emits_resilience_events(self):
        rec = telemetry.enable()
        backend = FaultInjectingBackend(LocalBackend(), schedule={0: "drop"})
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        rt = Runtime(backend, policy=policy)
        rt._sleep = lambda _s: None
        assert rt.sync(1, f2f(apps.add, 1, 1), idempotent=True) == 2
        rt.shutdown()
        assert rec.events("resilience.retry")
        assert rt.stats()["retries"] >= 1

    def test_health_transitions_emit_events(self):
        rec = telemetry.enable()
        clock = iter(float(i) for i in range(100))
        monitor = HealthMonitor(
            ResiliencePolicy(degraded_after=1, down_after=2),
            clock=lambda: next(clock),
        )
        for _ in range(2):
            monitor.record_failure(7)
        assert monitor.health(7) is NodeHealth.DOWN
        monitor.record_success(7)
        transitions = [
            (e.attrs["previous"], e.attrs["new"])
            for e in rec.events("health.transition")
        ]
        assert transitions == [
            ("healthy", "degraded"),
            ("degraded", "down"),
            ("down", "healthy"),
        ]
        counters = rec.metrics.snapshot()["counters"]
        assert counters["health.transitions"] == 3
        assert counters["health.circuit_opened"] == 1


class TestLeakWarning:
    def test_leak_warning_names_node_and_alloc_span(self):
        telemetry.enable()
        rt = Runtime(LocalBackend())
        ptr = rt.allocate(1, 4)
        alloc_span = rt._live_buffers[(ptr.node, ptr.addr)][1]
        assert alloc_span != 0
        with pytest.warns(ResourceWarning, match="leaked") as records:
            rt.shutdown()
        message = str(records[0].message)
        assert f"{ptr.addr:#x}" in message
        assert f"node {ptr.node}" in message
        assert f"alloc span {alloc_span:#x}" in message

    def test_leak_warning_without_telemetry_shows_zero_span(self):
        rt = Runtime(LocalBackend())
        ptr = rt.allocate(1, 4)
        with pytest.warns(ResourceWarning, match="leaked") as records:
            rt.shutdown()
        message = str(records[0].message)
        assert f"{ptr.addr:#x}" in message
        assert "alloc span 0x0" in message


class TestTcpEndToEnd:
    @pytest.fixture()
    def traced_rt(self):
        recorder = telemetry.enable()
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        yield runtime, backend, recorder
        runtime.shutdown()
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()

    def test_remote_offload_covers_all_phases(self, traced_rt, tmp_path):
        runtime, backend, recorder = traced_rt
        assert runtime.sync(1, f2f(apps.add, 20, 22)) == 42
        # The forked server inherited the enabled recorder; pull its
        # records over the wire and merge them into the host timeline.
        target_records = backend.fetch_target_telemetry()
        execute_spans = [
            r for r in target_records if r.kind == "span"
            and r.name == "offload.execute"
        ]
        assert execute_spans
        assert execute_spans[0].pid != os.getpid()
        host_names = {r.name for r in recorder.spans()}
        assert {
            "offload.serialize", "offload.enqueue", "offload.transport",
            "offload.reply", "offload.deserialize",
        } <= host_names
        recorder.ingest(target_records)
        # The merged trace is a valid Chrome trace covering both sides.
        trace = to_chrome(recorder)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "offload.execute" in names and "offload.enqueue" in names
        path = write_chrome_trace(tmp_path / "trace.json", recorder)
        assert path.exists()

    def test_report_cli_on_real_trace(self, traced_rt, tmp_path):
        runtime, backend, recorder = traced_rt
        for i in range(5):
            runtime.sync(1, f2f(apps.add, i, i))
        recorder.ingest(backend.fetch_target_telemetry())
        path = write_chrome_trace(tmp_path / "trace.json", recorder)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.report", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "offload.execute" in proc.stdout
        assert "p95" in proc.stdout
