"""Tests for the TCP/IP backend (real sockets, forked target process)."""

import time

import numpy as np
import pytest

from repro.backends import TcpBackend, spawn_local_server, tcp
from repro.backends._server import OP_READ, OP_WRITE
from repro.errors import BackendError, RemoteExecutionError
from repro.ham import f2f
from repro.offload import Runtime

from tests import apps
from tests.backends.test_target_dispatch import WAIT, Target


@pytest.fixture()
def rt():
    process, address = spawn_local_server()
    backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
    runtime = Runtime(backend)
    yield runtime
    runtime.shutdown()
    if process.is_alive():  # pragma: no cover - cleanup safety
        process.terminate()


class TestTcpOffload:
    def test_sync_roundtrip(self, rt):
        assert rt.sync(1, f2f(apps.add, 40, 2)) == 42

    def test_many_sequential_offloads(self, rt):
        for i in range(50):
            assert rt.sync(1, f2f(apps.add, i, 1)) == i + 1

    def test_async_pipeline(self, rt):
        futures = [rt.async_(1, f2f(apps.add, i, i)) for i in range(10)]
        assert [f.get() for f in futures] == [2 * i for i in range(10)]

    def test_async_out_of_order_get(self, rt):
        f1 = rt.async_(1, f2f(apps.add, 1, 0))
        f2 = rt.async_(1, f2f(apps.add, 2, 0))
        assert f2.get() == 2  # consuming the later future first
        assert f1.get() == 1

    def test_future_test_nonblocking(self, rt):
        future = rt.async_(1, f2f(apps.empty_kernel))
        # Must eventually turn true without calling get() — the receiver
        # thread completes the handle on its own.
        deadline = time.monotonic() + 10.0
        while not future.test() and time.monotonic() < deadline:
            time.sleep(0.001)
        assert future.test()

    def test_remote_exception(self, rt):
        with pytest.raises(RemoteExecutionError, match="tcp boom"):
            rt.sync(1, f2f(apps.raise_value_error, "tcp boom"))
        # Connection survives the error.
        assert rt.sync(1, f2f(apps.add, 1, 1)) == 2

    def test_numpy_payload(self, rt):
        arr = np.arange(1000.0)
        back = rt.sync(1, f2f(apps.echo, arr))
        np.testing.assert_array_equal(back, arr)


class TestTcpMemory:
    def test_put_get_roundtrip(self, rt):
        data = np.random.default_rng(3).random(256)
        ptr = rt.allocate(1, 256)
        rt.put(data, ptr)
        back = np.zeros(256)
        rt.get(ptr, back)
        np.testing.assert_array_equal(back, data)

    def test_buffer_argument_lives_on_server(self, rt):
        ptr = rt.allocate(1, 32)
        rt.put(np.full(32, 2.0), ptr)
        rt.sync(1, f2f(apps.scale_buffer, ptr, 10.0))
        assert rt.sync(1, f2f(apps.sum_buffer, ptr)) == pytest.approx(32 * 20.0)

    def test_free_then_use_fails_remotely(self, rt):
        ptr = rt.allocate(1, 8)
        rt.free(ptr)
        with pytest.raises(RemoteExecutionError):
            rt.sync(1, f2f(apps.sum_buffer, ptr))

    def test_interleaved_async_and_memory_ops(self, rt):
        # Memory ops while invokes are in flight must not desync replies.
        ptr = rt.allocate(1, 16)
        future = rt.async_(1, f2f(apps.add, 5, 5))
        rt.put(np.ones(16), ptr)
        assert rt.sync(1, f2f(apps.sum_buffer, ptr)) == pytest.approx(16.0)
        assert future.get() == 10


class TestTcpFrameLimit:
    """Every frame fits the parsers on both ends (``tcp.FRAME_LIMIT``):
    bulk data travels in frames of ``_max_payload`` bytes, and a frame
    over the limit is refused by its sender before a byte is written."""

    def test_a_transfer_larger_than_a_frame_is_chunked(self, rt, monkeypatch):
        backend = rt.backend
        monkeypatch.setattr(type(backend), "_max_payload", 4096)  # a small test
        ops = []
        roundtrip = backend._roundtrip

        def counted(op, *parts, **kwargs):
            ops.append(op)
            return roundtrip(op, *parts, **kwargs)

        monkeypatch.setattr(backend, "_roundtrip", counted)
        n = 3 * 4096 // 8 + 111
        data = np.random.default_rng(5).random(n)
        ptr = rt.allocate(1, n)
        rt.put(data, ptr)
        back = np.zeros(n)
        rt.get(ptr, back)
        np.testing.assert_array_equal(back, data)
        assert ops.count(OP_WRITE) == ops.count(OP_READ) == 4

    def test_a_frame_over_the_limit_is_refused_before_it_is_sent(
        self, rt, monkeypatch
    ):
        monkeypatch.setattr(tcp, "FRAME_LIMIT", 1 << 16)
        sent = rt.backend.bytes_sent
        big = np.zeros(1 << 14)  # 128 KiB
        with pytest.raises(BackendError, match="exceeds the tcp frame limit"):
            rt.sync(1, f2f(apps.echo, big))
        with pytest.raises(BackendError, match="exceeds the tcp frame limit"):
            rt.async_(1, f2f(apps.echo, big)).get()
        assert rt.backend.bytes_sent == sent
        assert rt.sync(1, f2f(apps.add, 1, 2)) == 3

    def test_a_reply_over_the_limit_comes_back_as_a_failure(self, monkeypatch):
        target = Target("tcp")  # in this process: the limit applies to it
        target.connect()
        try:
            ptr = target.runtime.allocate(1, 1 << 14)
            monkeypatch.setattr(tcp, "FRAME_LIMIT", 1 << 16)
            with pytest.raises(RemoteExecutionError, match="exceeds the tcp frame limit"):
                target.runtime.get(ptr, np.zeros(1 << 14))
            assert target.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        finally:
            target.runtime.shutdown()
            target.thread.join(WAIT)


class TestTcpLifecycle:
    def test_descriptor(self, rt):
        desc = rt.get_node_descriptor(1)
        assert desc.device_type == "cpu"
        assert desc.name.startswith("tcp:")

    def test_shutdown_joins_server(self):
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        runtime.sync(1, f2f(apps.empty_kernel))
        runtime.shutdown()
        assert not process.is_alive()
