"""Failure-injection tests: transports dying, corrupt frames, resource
exhaustion, stale handles. The framework must fail loudly and precisely —
never hang, never corrupt unrelated state."""

import socket
import struct
import time

import numpy as np
import pytest

from repro.backends import (
    DmaCommBackend,
    LocalBackend,
    TcpBackend,
    VeoCommBackend,
    spawn_local_server,
)
from repro.backends._server import OP_INVOKE, FrameParser
from repro.backends.base import InvokeHandle
from repro.backends.tcp import FRAME_LIMIT
from repro.errors import (
    BackendError,
    DmaatbError,
    OutOfMemoryError,
    RemoteExecutionError,
)
from repro.ham import deserialize, f2f
from repro.machine import AuroraMachine
from repro.offload import Runtime

from tests import apps
from tests.backends.wire import read_frame


class TestTcpTransportFailures:
    def test_server_killed_mid_session(self):
        process, address = spawn_local_server()
        runtime = Runtime(TcpBackend(address))
        assert runtime.sync(1, f2f(apps.add, 1, 1)) == 2
        process.terminate()
        process.join(timeout=5)
        with pytest.raises(BackendError):
            for _ in range(3):  # first call may still be buffered
                runtime.sync(1, f2f(apps.add, 1, 1))
        # Shutdown after a dead peer must not raise.
        runtime.shutdown()

    def test_malformed_frame_gets_failure_reply(self):
        """A corrupt invoke frame must produce a remote error, not kill
        the server."""
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        # Push a raw garbage invoke through the backend's socket, with a
        # fake reply expectation filed under its correlation id; whoever
        # drives — here a non-blocking poll, as ``Future.test`` does —
        # matches the failure reply back to it.
        handle_box = {}

        class FakeHandle:
            def complete_with_reply(self, reply):
                handle_box["reply"] = reply

            def complete_with_error(self, error):
                handle_box["error"] = error

        corr = next(InvokeHandle._ids)
        with backend._pending_lock:
            backend._pending[corr] = (OP_INVOKE, FakeHandle())
        backend._send(OP_INVOKE, corr, b"not a ham message")
        deadline = time.monotonic() + 10.0
        while not handle_box and time.monotonic() < deadline:
            backend._poll()
            time.sleep(0.001)
        assert isinstance(handle_box.get("error"), RemoteExecutionError)
        # Server is still alive and serving.
        assert runtime.sync(1, f2f(apps.add, 2, 2)) == 4
        runtime.shutdown()

    def test_remote_read_of_bad_address_fails_cleanly(self):
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        with pytest.raises(RemoteExecutionError, match="not inside a live buffer"):
            backend.read_buffer(1, 0xDEAD, 16)
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        runtime.shutdown()

    def test_raw_client_with_garbage_bytes(self):
        """A client that speaks garbage gets an error frame (or a closed
        connection), and the server does not crash the test harness."""
        process, address = spawn_local_server()
        sock = socket.create_connection(address, timeout=5)
        # Valid length prefix and correlation id, bogus op.
        sock.sendall(struct.pack("<I", 9) + b"\xee" + struct.pack("<Q", 7))
        op, corr, body = read_frame(FrameParser(sock, FRAME_LIMIT))
        assert op == 0xFF
        assert corr == 7  # failure replies echo the request's id
        info = deserialize(body)
        assert "unknown op" in info["message"]
        sock.close()
        process.terminate()
        process.join(timeout=5)


class TestSimBackendFailures:
    @pytest.mark.parametrize("backend_cls", [VeoCommBackend, DmaCommBackend])
    def test_remote_exception_marks_only_that_future(self, backend_cls):
        runtime = Runtime(backend_cls())
        ok_before = runtime.async_(1, f2f(apps.add, 1, 1))
        bad = runtime.async_(1, f2f(apps.raise_value_error, "pop"))
        ok_after = runtime.async_(1, f2f(apps.add, 2, 2))
        assert ok_before.get() == 2
        with pytest.raises(RemoteExecutionError, match="pop"):
            bad.get()
        assert ok_after.get() == 4
        runtime.shutdown()

    @pytest.mark.parametrize("backend_cls", [VeoCommBackend, DmaCommBackend])
    def test_ve_out_of_memory_propagates(self, backend_cls):
        backend = backend_cls(AuroraMachine(num_ves=1, ve_memory_bytes=8 * 2**20))
        runtime = Runtime(backend)
        with pytest.raises(OutOfMemoryError):
            runtime.allocate(1, 16 * 2**20, np.uint8)
        # Allocation failure leaves the runtime fully usable.
        ptr = runtime.allocate(1, 1024, np.uint8)
        runtime.free(ptr)
        runtime.shutdown()

    def test_dmaatb_exhaustion(self):
        machine = AuroraMachine(num_ves=1)
        ve = machine.ve(0)
        segment = machine.vh.shmget(1 << 20)
        for _ in range(ve.dmaatb.capacity):
            ve.dmaatb.register(segment, 0, 4096)
        with pytest.raises(DmaatbError, match="full"):
            ve.dmaatb.register(segment, 0, 4096)

    def test_double_shutdown_is_idempotent(self):
        runtime = Runtime(DmaCommBackend())
        runtime.sync(1, f2f(apps.empty_kernel))
        runtime.shutdown()
        runtime.shutdown()

    def test_stale_buffer_after_free_faults_on_ve(self):
        runtime = Runtime(DmaCommBackend())
        ptr = runtime.allocate(1, 64)
        runtime.put(np.zeros(64), ptr)
        runtime.free(ptr)
        # The VE-side resolver views raw HBM; freeing returns the pages
        # to the allocator, so a *new* allocation may alias. The runtime
        # itself refuses the stale pointer at the API boundary.
        from repro.errors import OffloadError

        with pytest.raises(OffloadError):
            runtime.free(ptr)
        runtime.shutdown()

    def test_message_larger_than_slot_rejected_before_transport(self):
        backend = DmaCommBackend(msg_size=512)
        runtime = Runtime(backend)
        with pytest.raises(BackendError, match="exceeds slot capacity"):
            runtime.sync(1, f2f(apps.echo, np.zeros(4096)))
        assert runtime.sync(1, f2f(apps.add, 1, 1)) == 2
        runtime.shutdown()


class TestLocalBackendFailures:
    def test_cross_node_buffer_dereference_rejected(self):
        runtime = Runtime(LocalBackend(num_targets=2))
        ptr_on_2 = runtime.allocate(2, 8)
        with pytest.raises(RemoteExecutionError, match="node"):
            runtime.sync(1, f2f(apps.sum_buffer, ptr_on_2))
        runtime.shutdown()

    def test_shutdown_rejects_further_traffic(self):
        backend = LocalBackend()
        runtime = Runtime(backend)
        runtime.shutdown()
        with pytest.raises(Exception):
            backend.alloc_buffer(1, 64)


class TestProtocolRobustness:
    def test_many_failures_do_not_leak_slots(self):
        """After many failing offloads, slots recycle and the protocol
        still works (no slot leak / seq desync)."""
        backend = DmaCommBackend(num_slots=4)
        runtime = Runtime(backend)
        for i in range(20):
            with pytest.raises(RemoteExecutionError):
                runtime.sync(1, f2f(apps.raise_value_error, f"e{i}"))
        assert runtime.sync(1, f2f(apps.add, 3, 4)) == 7
        runtime.shutdown()

    def test_interleaved_errors_and_buffers(self):
        runtime = Runtime(VeoCommBackend())
        ptr = runtime.allocate(1, 32)
        runtime.put(np.ones(32), ptr)
        with pytest.raises(RemoteExecutionError):
            runtime.sync(1, f2f(apps.raise_value_error, "mid"))
        assert runtime.sync(1, f2f(apps.sum_buffer, ptr)) == pytest.approx(32.0)
        runtime.shutdown()
