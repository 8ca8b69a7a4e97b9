"""End-to-end tests: one causal trace across the process boundary."""

import collections
import os
import time

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.backends.base import Backend
from repro.backends.faulty import FaultInjectingBackend
from repro.backends.local import LocalBackend
from repro.ham import f2f
from repro.offload import Runtime
from repro.offload import api as offload_api
from repro.offload.node import HOST_NODE, NodeDescriptor
from repro.telemetry import recorder as telemetry
from repro.telemetry.distributed import critical_path, group_by_trace
from repro.telemetry.export import to_chrome

from tests import apps


class TestLocalBackendTracing:
    def test_offload_spans_share_one_trace_id(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        assert rt.sync(1, f2f(apps.add, 1, 2)) == 3
        rt.shutdown()
        spans = [s for s in rec.spans("offload.")
                 if s.name != "offload.health_probe"]
        trace_ids = {s.trace_id for s in spans}
        assert len(trace_ids) == 1
        assert "" not in trace_ids

    def test_distinct_offloads_get_distinct_traces(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        rt.sync(1, f2f(apps.add, 1, 2))
        rt.sync(1, f2f(apps.add, 3, 4))
        rt.shutdown()
        serializes = rec.spans("offload.serialize")
        assert len(serializes) == 2
        assert serializes[0].trace_id != serializes[1].trace_id

    def test_async_future_joins_the_offload_trace(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        future = rt.async_(1, f2f(apps.add, 5, 6))
        assert future.get() == 11
        rt.shutdown()
        serialize = rec.spans("offload.serialize")[0]
        deserialize = rec.spans("offload.deserialize")[0]
        assert deserialize.trace_id == serialize.trace_id

    def test_untraced_without_telemetry(self):
        # No recorder: offloads must not mint contexts (v1 headers).
        rt = Runtime(LocalBackend())
        assert rt.sync(1, f2f(apps.add, 1, 2)) == 3
        rt.shutdown()

    def test_chrome_export_carries_trace_id(self):
        rec = telemetry.enable()
        rt = Runtime(LocalBackend())
        rt.sync(1, f2f(apps.add, 1, 2))
        rt.shutdown()
        trace = to_chrome(rec)
        execute = next(e for e in trace["traceEvents"]
                       if e.get("name") == "offload.execute")
        assert len(execute["trace_id"]) == 32


class TestRetryReparenting:
    def test_retries_share_the_offload_trace(self):
        from repro.offload.resilience import ResiliencePolicy

        rec = telemetry.enable()
        backend = FaultInjectingBackend(LocalBackend(), schedule={0: "drop"})
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        rt = Runtime(backend, policy=policy)
        rt._sleep = lambda _s: None
        assert rt.sync(1, f2f(apps.add, 1, 1), idempotent=True) == 2
        rt.shutdown()
        (retry,) = rec.events("resilience.retry")
        (fault,) = rec.events("fault.injected")
        serializes = rec.spans("offload.serialize")
        # The drop hits attempt #1 before it serialized; the successful
        # retry serialized under the SAME trace, and the fault + retry
        # events are stamped with it too — cause and effect in one tree.
        assert len(serializes) == 1
        assert retry.trace_id == serializes[0].trace_id != ""
        assert fault.trace_id == retry.trace_id


class TestTcpTracing:
    @pytest.fixture()
    def traced(self):
        recorder = telemetry.enable()
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        yield runtime, backend, recorder
        runtime.shutdown()
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()

    def test_execute_parents_to_host_serialize_span(self, traced):
        runtime, backend, recorder = traced
        assert runtime.sync(1, f2f(apps.add, 20, 22)) == 42
        recorder.ingest(backend.fetch_target_telemetry())
        serialize = recorder.spans("offload.serialize")[0]
        execute = next(s for s in recorder.spans("offload.execute"))
        assert execute.pid != os.getpid()
        assert execute.trace_id == serialize.trace_id != ""
        assert execute.parent_id == serialize.span_id

    def test_clock_sync_estimated_at_connect(self, traced):
        _runtime, backend, _recorder = traced
        assert backend.clock_sync.samples > 0
        assert backend.clock_sync.rtt_ns > 0

    def test_merged_critical_path_is_monotone(self, traced):
        runtime, backend, recorder = traced
        for i in range(3):
            assert runtime.sync(1, f2f(apps.add, i, i)) == 2 * i
        recorder.ingest(backend.fetch_target_telemetry())
        groups = group_by_trace(recorder.records())
        assert len(groups) == 3
        for group in groups.values():
            path = critical_path(group)
            names = [seg["phase"] for seg in path]
            assert "offload.execute" in names
            starts = [seg["start_ns"] for seg in path]
            assert starts == sorted(starts)

    def test_shutdown_drains_target_telemetry(self):
        recorder = telemetry.enable()
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        assert not recorder.spans("offload.execute")
        runtime.shutdown()  # drains OP_TELEMETRY before closing
        assert recorder.spans("offload.execute")


class TestFinalizeInitCycle:
    """A second ``init`` forks its target from a host whose ring is not
    empty: the child must start with none of it."""

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_second_target_ships_no_pre_fork_record(self, backend):
        def cycle():
            offload_api.init(backend, telemetry={"sample_rate": 1.0})
            try:
                for i in range(3):
                    assert offload_api.sync(1, f2f(apps.echo, i)) == i
            finally:
                offload_api.finalize()  # pulls the target's records

        # Enabled before the first fork too, so that both targets record
        # (init's string form spawns its target before it enables).
        rec = telemetry.enable()
        cycle()
        first = rec.records()
        assert first, "the first cycle recorded nothing"
        forked_at = time.perf_counter_ns()
        cycle()
        merged = rec.records()
        counts = collections.Counter(r.span_id for r in merged)
        assert [i for i, n in counts.items() if n > 1] == []
        # Both targets executed: 2 x 3 execute spans, from two pids.
        executes = rec.spans("offload.execute")
        assert len(executes) == 6
        assert len({r.pid for r in executes}) == 2
        first_pids = {r.pid for r in first}
        second_target = [r for r in merged if r.pid not in first_pids]
        assert second_target
        for record in second_target:
            started = record.start_ns if record.kind == "span" else record.ts_ns
            assert started >= forked_at, record


class _StubBackend(Backend):
    """Minimal backend for shutdown-drain unit tests."""

    name = "stub"

    def __init__(self):
        self.shutdown_called = False

    def num_nodes(self):
        return 2

    def descriptor(self, node):
        return NodeDescriptor(node, "stub", "host", "stub")

    def post_invoke(self, node, functor):  # pragma: no cover - unused
        raise NotImplementedError

    def drive(self, handle, *, blocking, timeout=None):  # pragma: no cover
        raise NotImplementedError

    def alloc_buffer(self, node, nbytes):  # pragma: no cover - unused
        raise NotImplementedError

    def free_buffer(self, node, addr):  # pragma: no cover - unused
        raise NotImplementedError

    def write_buffer(self, node, addr, data):  # pragma: no cover - unused
        raise NotImplementedError

    def read_buffer(self, node, addr, nbytes):  # pragma: no cover - unused
        raise NotImplementedError

    def shutdown(self):
        self.shutdown_called = True


class TestShutdownDrain:
    def test_failing_pull_emits_event_not_exception(self):
        rec = telemetry.enable()

        class Hanging(_StubBackend):
            def fetch_target_telemetry(self, timeout=None, align=True):
                raise TimeoutError("target wedged")

        backend = Hanging()
        rt = Runtime(backend)
        rt.shutdown()  # must not raise
        assert backend.shutdown_called
        (event,) = rec.events("telemetry.pull_failed")
        assert event.attrs["error"] == "TimeoutError"
        counters = rec.metrics.snapshot()["counters"]
        assert counters["telemetry.pull_failures"] == 1

    def test_drain_passes_short_timeout(self):
        telemetry.enable()
        seen = {}

        class Observing(_StubBackend):
            def fetch_target_telemetry(self, timeout=None, align=True):
                seen["timeout"] = timeout
                return []

        rt = Runtime(Observing())
        rt.shutdown()
        assert seen["timeout"] is not None
        assert seen["timeout"] <= 5.0

    def test_no_drain_without_telemetry(self):
        calls = []

        class Observing(_StubBackend):
            def fetch_target_telemetry(self, timeout=None, align=True):
                calls.append(timeout)
                return []

        rt = Runtime(Observing())
        rt.shutdown()
        assert calls == []

    def test_backend_without_fetch_is_fine(self):
        telemetry.enable()
        backend = _StubBackend()
        rt = Runtime(backend)
        rt.shutdown()
        assert backend.shutdown_called

    def test_faulty_wrapper_forwards_fetch(self):
        telemetry.enable()

        class Providing(_StubBackend):
            def fetch_target_telemetry(self, timeout=None, align=True):
                return ["sentinel"]

        proxy = FaultInjectingBackend(Providing())
        assert proxy.fetch_target_telemetry() == ["sentinel"]

    def test_faulty_wrapper_over_plain_backend_returns_empty(self):
        proxy = FaultInjectingBackend(_StubBackend())
        assert proxy.fetch_target_telemetry() == []
