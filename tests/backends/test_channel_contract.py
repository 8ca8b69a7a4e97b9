"""The Channel contract, parametrized over every backend.

Every backend is a *channel*: invocations carry process-unique
correlation ids and complete in **any** order — the application may
consume futures shuffled, and on a concurrent target the replies
themselves arrive out of request order. What bounds and schedules them
is the posting runtime's window, which therefore has to behave the same
over every transport, proxy and composition (``TestQoSConformance``).
See ``docs/architecture.md``.
"""

from __future__ import annotations

import ast
import pathlib
import random
import socket
import threading
import time

import numpy as np
import pytest

import repro
from repro.backends import (
    DmaCommBackend,
    FanoutBackend,
    FaultInjectingBackend,
    LocalBackend,
    ShmBackend,
    TcpBackend,
    VeoCommBackend,
    spawn_local_server,
    spawn_shm_server,
)
from repro.backends.base import DEFAULT_INFLIGHT_LIMIT, Backend, InvokeHandle
from repro.backends._server import OP_PING, OP_REPLY_BIT, FrameParser
from repro.backends.tcp import FRAME_LIMIT
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham import f2f
from repro.offload import QoSConfig, ResiliencePolicy, Runtime, TenantPolicy
from repro.offload import api as offload_api

from tests import apps
from tests.backends.wire import read_frame, send_frame

BACKENDS = ["local", "faulty", "dma", "veo", "tcp", "shm"]


@pytest.fixture(params=BACKENDS)
def channel(request):
    """``(name, runtime, backend)`` for each conforming backend."""
    name = request.param
    if name == "local":
        backend = LocalBackend()
    elif name == "faulty":
        backend = FaultInjectingBackend(LocalBackend())
    elif name == "dma":
        backend = DmaCommBackend()
    elif name == "veo":
        backend = VeoCommBackend()
    elif name == "shm":
        process, segment = spawn_shm_server(workers=4)
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
    else:
        process, address = spawn_local_server(workers=4)
        backend = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
    runtime = Runtime(backend)
    yield name, runtime, backend
    runtime.shutdown()


class TestChannelContract:
    def test_shuffled_consumption_of_concurrent_invokes(self, channel):
        """N in-flight ``async_`` calls, futures consumed in shuffled
        order: every reply must land on *its* future, whatever the
        completion order."""
        _name, runtime, _backend = channel
        futures = [
            (i, runtime.async_(1, f2f(apps.add, i, 1000))) for i in range(16)
        ]
        random.Random(42).shuffle(futures)
        for i, future in futures:
            assert future.get() == i + 1000

    def test_correlation_ids_are_unique_and_released(self, channel):
        _name, runtime, _backend = channel
        futures = [runtime.async_(1, f2f(apps.add, i, i)) for i in range(8)]
        ids = [future.correlation_id for future in futures]
        assert all(isinstance(corr, int) for corr in ids)
        assert len(set(ids)) == len(ids)
        for future in futures:
            future.get()
        # Settled futures detach from their handles.
        assert all(future.correlation_id is None for future in futures)

    def test_window_bounds_inflight_invokes(self, channel):
        """With the window clamped to 2, the runtime never holds more
        than 2 invocations in flight — a post waits (or drives) until a
        slot frees up, and all results still come out right."""
        _name, runtime, _backend = channel
        runtime.window.set_limit(2)
        futures = []
        for i in range(6):
            futures.append(runtime.async_(1, f2f(apps.add, i, 7)))
            assert runtime.window.in_flight <= 2
        assert [future.get() for future in futures] == [i + 7 for i in range(6)]

    def test_default_window_limit(self, channel):
        _name, runtime, _backend = channel
        assert runtime.window.limit == DEFAULT_INFLIGHT_LIMIT


@pytest.mark.parametrize(
    "channel", ["local", "dma", "veo", "shm", "tcp"], indirect=True)
def test_a_kernel_given_a_freed_buffer_gets_a_bad_address(channel):
    """The target checks a pointer against its live allocations, on the
    simulated VE as on a hosted target: a freed buffer is not read."""
    _name, runtime, _backend = channel
    ptr = runtime.allocate(1, 4)
    runtime.put(np.ones(4), ptr).get()
    assert runtime.sync(1, f2f(apps.sum_buffer, ptr)) == 4.0
    runtime.free(ptr)
    with pytest.raises(RemoteExecutionError, match="BadAddressError"):
        runtime.sync(1, f2f(apps.sum_buffer, ptr))


@pytest.mark.parametrize("channel", ["tcp", "shm"], indirect=True)
class TestFramedMemoryOps:
    """Both framed transports take any buffer and count it in bytes."""

    def test_ndarray_in_same_bytes_back(self, channel):
        _name, _runtime, backend = channel
        data = np.arange(16.0)
        addr = backend.alloc_buffer(1, data.nbytes)
        backend.write_buffer(1, addr, data)
        assert backend.read_buffer(1, addr, data.nbytes) == data.tobytes()
        backend.free_buffer(1, addr)

    def test_roundtrip_whose_send_raises_files_nothing(self, channel):
        _name, runtime, backend = channel
        addr = backend.alloc_buffer(1, 8)
        with pytest.raises(TypeError):
            backend.write_buffer(1, addr, 5)
        assert backend._pending_count() == 0
        backend.free_buffer(1, addr)
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3


class TestWindowConfiguration:
    def test_runtime_window_parameter_sets_limit(self):
        backend = LocalBackend()
        runtime = Runtime(backend, window=3)
        assert runtime.window.limit == 3
        assert runtime.stats()["window"] == {
            "in_flight": 0, "limit": 3, "handles": []}
        runtime.shutdown()

    def test_api_init_window_parameter(self):
        backend = LocalBackend()
        runtime = offload_api.init(backend, window=5)
        try:
            assert runtime.window.limit == 5
        finally:
            offload_api.finalize()


def _start_wedge_server() -> tuple[str, int]:
    """A TCP target that completes the handshake, then never replies."""
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()[:2]

    def run() -> None:
        try:
            conn, _peer = listener.accept()
            with conn:
                parser = FrameParser(conn, FRAME_LIMIT)
                op, corr, _body = read_frame(parser)
                assert op == OP_PING
                send_frame(conn, OP_PING | OP_REPLY_BIT, corr, b"")
                while read_frame(parser):
                    pass  # consume and stay silent forever
        except (OSError, BackendError):
            pass
        finally:
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return address


class TestTcpPipelining:
    def test_replies_complete_out_of_request_order(self):
        """A slow invocation posted first must not head-of-line block a
        fast one posted second: the worker pool executes them
        concurrently and the fast reply overtakes on the wire."""
        process, address = spawn_local_server(workers=2)
        backend = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
        runtime = Runtime(backend)
        slow = runtime.async_(1, f2f(apps.sleep_then, 0.8, "slow"))
        fast = runtime.async_(1, f2f(apps.sleep_then, 0.05, "fast"))
        assert fast.get(timeout=10.0) == "fast"
        assert not slow.test()  # the earlier request is still executing
        assert slow.get(timeout=10.0) == "slow"
        runtime.shutdown()

    def test_window_backpressure_keeps_pipeline_correct(self):
        process, address = spawn_local_server(workers=4)
        backend = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
        runtime = Runtime(backend, window=2)
        futures = []
        for i in range(8):
            futures.append(runtime.async_(1, f2f(apps.sleep_then, 0.02, i)))
            assert runtime.window.in_flight <= 2
        assert [future.get(timeout=10.0) for future in futures] == list(range(8))
        assert runtime.stats()["window"] == {
            "in_flight": 0, "limit": 2, "handles": []}
        runtime.shutdown()

    @pytest.mark.slow_failure
    def test_full_window_fails_fast_when_target_is_silent(self):
        """Backpressure must respect the resilience deadline: with the
        window full against a wedged target, the next post raises
        within the policy deadline instead of blocking forever."""
        address = _start_wedge_server()
        backend = TcpBackend(address)
        runtime = Runtime(backend, policy=ResiliencePolicy(deadline=0.2), window=2)
        runtime.async_(1, f2f(apps.add, 1, 1))
        runtime.async_(1, f2f(apps.add, 2, 2))
        assert runtime.window.in_flight == 2
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError, match="window full"):
            runtime.async_(1, f2f(apps.add, 3, 3))
        assert time.monotonic() - start < 2.0
        runtime.shutdown()


QOS_BACKENDS = ["local", "tcp", "shm", "faulty-tcp", "fanout-tcp"]
QOS_WINDOW = 2


def _tcp_backend() -> TcpBackend:
    process, address = spawn_local_server(workers=4)
    return TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))


@pytest.fixture(params=QOS_BACKENDS)
def qos_runtime(request):
    """A runtime under one ``QoSConfig`` over each transport, proxy and
    composition: admission and the window have to act the same on all
    of them."""
    name = request.param
    if name == "local":
        backend = LocalBackend()
    elif name == "tcp":
        backend = _tcp_backend()
    elif name == "shm":
        process, segment = spawn_shm_server(workers=4)
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
    elif name == "faulty-tcp":
        backend = FaultInjectingBackend(_tcp_backend())
    else:
        backend = FanoutBackend([_tcp_backend(), _tcp_backend()])
    config = QoSConfig(tenants={"a": TenantPolicy(), "b": TenantPolicy()})
    runtime = Runtime(backend, window=QOS_WINDOW, qos=config)
    yield runtime
    runtime.shutdown()


def _posting_threads(runtime, count, kernel_seconds, rounds, errors):
    """``count`` threads, tenants a and b in turn, each posting ``rounds``
    synchronous offloads spread over the runtime's targets."""
    targets = runtime.targets()

    def post(index: int) -> None:
        tenant = "ab"[index % 2]
        try:
            for i in range(rounds):
                node = targets[(index + i) % len(targets)]
                functor = f2f(apps.sleep_then, kernel_seconds, (index, i))
                assert runtime.sync(node, functor, tenant=tenant) == (index, i)
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    threads = [
        threading.Thread(target=post, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestQoSConformance:
    def test_every_tenant_is_granted_within_the_window(self, qos_runtime):
        runtime = qos_runtime
        errors: list[BaseException] = []
        threads = _posting_threads(runtime, 6, 0.01, 5, errors)
        peak = 0
        while any(thread.is_alive() for thread in threads):
            peak = max(peak, runtime.window.in_flight)
            time.sleep(0.001)
        assert errors == []
        assert 0 < peak <= QOS_WINDOW
        admission = runtime.stats()["qos"]["admission"]
        for tenant in "ab":
            assert admission[tenant]["admitted"] == 15, admission
            assert admission[tenant]["rejected"] == 0
        assert runtime.window.in_flight == runtime.window.queued == 0


def contract_probes(src: pathlib.Path) -> list[str]:
    """``getattr``/``hasattr`` calls under ``src`` whose string literal
    names an attribute of ``Backend`` or ``InvokeHandle``."""
    backend = LocalBackend()
    names = {name for name in (*dir(Backend), *dir(InvokeHandle),
                               *vars(InvokeHandle(backend)))
             if not name.startswith("__")}
    backend.shutdown()
    hits = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in names):
                hits.append(f"{path.relative_to(src)}:{node.lineno}")
    return hits


class TestOneContract:
    """Every target operation is a ``Backend`` method: callers call it,
    whatever wraps or composes the backend."""

    def test_target_introspection_through_proxies_and_simulators(self):
        fanout = FanoutBackend([LocalBackend(), FaultInjectingBackend(LocalBackend())])
        try:
            assert [t["node"] for t in fanout.introspect_target()["targets"]] == [1, 2]
        finally:
            fanout.shutdown()
        for backend in (FaultInjectingBackend(DmaCommBackend()), VeoCommBackend()):
            try:
                assert backend.introspect_target() is None
            finally:
                backend.shutdown()

    def test_nothing_probes_a_backend_or_handle_by_name(self):
        assert contract_probes(pathlib.Path(repro.__file__).parent) == []
