"""End-to-end tests: one causal trace across the process boundary."""

import collections
import os

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.backends._server import OP_SHUTDOWN
from repro.backends.faulty import FaultInjectingBackend
from repro.backends.local import LocalBackend
from repro.ham import f2f
from repro.offload import Runtime
from repro.offload import api as offload_api
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
        yield runtime, process, recorder
        runtime.shutdown()
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()

    def test_execute_nests_under_transport(self, traced):
        runtime, process, recorder = traced
        assert runtime.sync(1, f2f(apps.add, 20, 22)) == 42
        serialize = recorder.spans("offload.serialize")[0]
        transport = recorder.spans("offload.transport")[0]
        (execute,) = recorder.spans("offload.execute")
        assert execute.pid == process.pid != os.getpid()
        assert execute.trace_id == serialize.trace_id != ""
        assert execute.parent_id == transport.span_id
        assert transport.start_ns <= execute.start_ns <= execute.end_ns
        assert execute.end_ns <= transport.end_ns

    def test_execute_is_recorded_when_the_offload_settles(self, traced):
        runtime, _process, recorder = traced
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        assert len(recorder.spans("offload.execute")) == 1

    def test_merged_critical_path_is_monotone(self, traced):
        runtime, _process, recorder = traced
        for i in range(3):
            assert runtime.sync(1, f2f(apps.add, i, i)) == 2 * i
        groups = group_by_trace(recorder.records())
        assert len(groups) == 3
        for group in groups.values():
            path = critical_path(group)
            names = [seg["phase"] for seg in path]
            assert "offload.execute" in names
            starts = [seg["start_ns"] for seg in path]
            assert starts == sorted(starts)


class TestTracedFinalize:
    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_a_traced_finalize_sends_only_shutdown(self, transport):
        """The first target of a process, forked before ``init`` enables
        the recorder, still reports its execute time; ``finalize()``
        then sends ``OP_SHUTDOWN`` alone, and records nothing."""
        runtime = offload_api.init(transport, telemetry=True)
        recorder = telemetry.get()
        backend = runtime.backend
        ops, send = [], backend._send
        try:
            for i in range(3):
                assert offload_api.sync(1, f2f(apps.echo, i)) == i
            recorded = recorder.recorded
            backend._send = lambda op, *rest: ops.append(op) or send(op, *rest)
        finally:
            offload_api.finalize()
            telemetry.disable()
        assert ops == [OP_SHUTDOWN]
        assert recorder.recorded == recorded
        assert len(recorder.spans("offload.execute")) == 3


class TestFinalizeInitCycle:
    """Each ``init`` forks a fresh target: its execute records carry its
    own pid, and nothing is recorded twice."""

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_second_target_ships_no_pre_fork_record(self, backend):
        rec = telemetry.enable()  # kept across both cycles

        def cycle():
            runtime = offload_api.init(backend, telemetry={"sample_rate": 1.0})
            try:
                pid = runtime.backend.introspect_target()["pid"]
                for i in range(3):
                    assert offload_api.sync(1, f2f(apps.echo, i)) == i
            finally:
                offload_api.finalize()
            return pid

        try:
            first = cycle()
            second = cycle()
        finally:
            telemetry.disable()
        assert first != second
        counts = collections.Counter(r.span_id for r in rec.records())
        assert [i for i, n in counts.items() if n > 1] == []
        executes = rec.spans("offload.execute")
        assert [r.pid for r in executes] == [first] * 3 + [second] * 3
