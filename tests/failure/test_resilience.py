"""Resilience-layer tests: deadlines, retries, circuit breaking, failover
and deterministic fault injection. The invariant under test: with a
``ResiliencePolicy`` installed, no offload path blocks forever, and every
fault surfaces as a typed ``ReproError`` subclass."""

from __future__ import annotations

import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from repro.backends import (
    ClusterBackend,
    DmaCommBackend,
    FanoutBackend,
    FaultInjectingBackend,
    LocalBackend,
    TcpBackend,
    spawn_local_server,
)
from repro.backends._server import OP_PING, OP_REPLY_BIT, FrameParser
from repro.backends.tcp import FRAME_LIMIT
from repro.cluster import AuroraCluster
from repro.errors import (
    BackendError,
    CircuitOpenError,
    CorruptFrameError,
    InjectedFaultError,
    OffloadError,
    OffloadTimeoutError,
    RemoteExecutionError,
    ReproError,
)
from repro.ham import f2f
from repro.offload import HealthMonitor, NodeHealth, ResiliencePolicy, Runtime

from tests import apps
from tests.backends.wire import read_frame, send_frame


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _start_misbehaving_server(behavior: str) -> tuple[str, int]:
    """A TCP target that completes the handshake, then misbehaves.

    ``behavior``:
      * ``"wedge"``  — accept requests but never reply (silent target);
      * ``"truncate"`` — consume two requests, then reply with a partial
        frame (length prefix promising more bytes than sent) and close,
        so both operations are pending when the stream dies.

    Returns the listening address; the server thread is a daemon.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()[:2]

    def run() -> None:
        try:
            conn, _peer = listener.accept()
            with conn:
                parser = FrameParser(conn, FRAME_LIMIT)
                op, corr, _body = read_frame(parser)
                assert op == OP_PING
                # Empty digest: the client skips the catalog comparison.
                send_frame(conn, OP_PING | OP_REPLY_BIT, corr, b"")
                if behavior == "wedge":
                    while read_frame(parser):
                        pass  # consume and stay silent forever
                else:  # truncate
                    read_frame(parser)
                    read_frame(parser)
                    conn.sendall(struct.pack("<I", 64) + b"\x81")
        except (OSError, BackendError):
            pass
        finally:
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return address


class _FlakyNodeBackend(LocalBackend):
    """LocalBackend whose listed nodes fail every invoke at transport level."""

    def __init__(self, dead_nodes, **kwargs) -> None:
        super().__init__(**kwargs)
        self.dead_nodes = set(dead_nodes)
        self.attempted_nodes: list[int] = []

    def _execute(self, node, functor):  # under post_invoke and sync_invoke
        self.attempted_nodes.append(node)
        if node in self.dead_nodes:
            raise BackendError(f"node {node} unplugged (test)")
        return super()._execute(node, functor)


FAST_RETRY = dict(backoff_base=1e-4, backoff_max=1e-3, jitter=0.0)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    @pytest.mark.slow_failure
    def test_silent_server_raises_within_deadline(self):
        """The acceptance-criterion scenario: the server accepts, then goes
        silent; ``sync`` must raise the timeout error within the deadline
        instead of blocking forever."""
        address = _start_misbehaving_server("wedge")
        runtime = Runtime(
            TcpBackend(address), policy=ResiliencePolicy(deadline=0.4)
        )
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError):
            runtime.sync(1, f2f(apps.add, 1, 1))
        assert time.monotonic() - start < 2.0  # deadline + generous slack

    @pytest.mark.slow_failure
    def test_future_get_timeout_leaves_future_pending(self):
        address = _start_misbehaving_server("wedge")
        backend = TcpBackend(address)
        runtime = Runtime(backend)
        future = runtime.async_(1, f2f(apps.add, 2, 2))
        with pytest.raises(OffloadTimeoutError):
            future.get(timeout=0.2)
        # Soft timeout: nothing was consumed, the future may be retried.
        with pytest.raises(OffloadTimeoutError):
            future.get(timeout=0.2)

    @pytest.mark.slow_failure
    def test_memory_ops_honor_default_deadline(self):
        address = _start_misbehaving_server("wedge")
        backend = TcpBackend(address, op_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError):
            backend.alloc_buffer(1, 1024)
        assert time.monotonic() - start < 2.0

    def test_sim_backend_deadline_in_simulated_seconds(self):
        backend = DmaCommBackend()
        backend.kernel_cost_fn = lambda functor: 10.0  # 10 simulated seconds
        runtime = Runtime(backend)
        future = runtime.async_(1, f2f(apps.empty_kernel))
        with pytest.raises(OffloadTimeoutError):
            future.get(timeout=0.5)
        runtime.shutdown()

    def test_policy_validation(self):
        with pytest.raises(OffloadError):
            ResiliencePolicy(deadline=0.0)
        with pytest.raises(OffloadError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(OffloadError):
            ResiliencePolicy(degraded_after=5, down_after=2)


# ---------------------------------------------------------------------------
# retries and backoff
# ---------------------------------------------------------------------------


class TestRetries:
    def test_success_after_n_failures(self):
        """Two scheduled drops, then clean: an idempotent sync retries
        through them with the policy's backoff schedule."""
        backend = FaultInjectingBackend(
            LocalBackend(), seed=7, schedule={0: "drop", 1: "drop"}
        )
        policy = ResiliencePolicy(max_retries=3, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        slept: list[float] = []
        runtime._sleep = slept.append
        assert runtime.sync(1, f2f(apps.add, 20, 22), idempotent=True) == 42
        assert [event.kind for event in backend.fault_log] == ["drop", "drop"]
        assert slept == list(policy.delays())[:2]
        assert runtime.stats()["retries"] == 2
        # Transport recovered: the node is healthy again.
        assert runtime.monitor.health(1) is NodeHealth.HEALTHY

    def test_non_idempotent_sync_never_retries(self):
        backend = FaultInjectingBackend(LocalBackend(), schedule={0: "drop"})
        runtime = Runtime(
            backend, policy=ResiliencePolicy(max_retries=5, **FAST_RETRY)
        )
        with pytest.raises(InjectedFaultError):
            runtime.sync(1, f2f(apps.add, 1, 1))
        assert backend.ops_forwarded == 1  # exactly one attempt

    def test_remote_application_error_is_not_retried(self):
        backend = FaultInjectingBackend(LocalBackend())
        runtime = Runtime(
            backend, policy=ResiliencePolicy(max_retries=5, **FAST_RETRY)
        )
        with pytest.raises(RemoteExecutionError, match="boom"):
            runtime.sync(1, f2f(apps.raise_value_error, "boom"), idempotent=True)
        assert backend.ops_forwarded == 1
        # An application error means the transport worked.
        assert runtime.monitor.health(1) is NodeHealth.HEALTHY

    def test_retries_exhausted_raises_last_error(self):
        backend = FaultInjectingBackend(LocalBackend(), drop_rate=1.0)
        policy = ResiliencePolicy(max_retries=2, down_after=10, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        runtime._sleep = lambda _s: None
        with pytest.raises(InjectedFaultError):
            runtime.sync(1, f2f(apps.add, 1, 1), idempotent=True)
        assert backend.ops_forwarded == 3  # 1 + max_retries

    def test_backoff_schedule_is_seeded(self):
        a = ResiliencePolicy(max_retries=4, jitter=0.5, seed=123)
        b = ResiliencePolicy(max_retries=4, jitter=0.5, seed=123)
        c = ResiliencePolicy(max_retries=4, jitter=0.5, seed=124)
        assert list(a.delays()) == list(b.delays())
        assert list(a.delays()) != list(c.delays())
        # Exponential shape survives the jitter bounds.
        for k, delay in enumerate(a.delays()):
            base = min(a.backoff_max, a.backoff_base * a.backoff_factor**k)
            assert 0.5 * base <= delay <= 1.5 * base


# ---------------------------------------------------------------------------
# health monitor and circuit breaker
# ---------------------------------------------------------------------------


class TestHealthMonitor:
    def test_state_machine_transitions(self):
        monitor = HealthMonitor(ResiliencePolicy(degraded_after=2, down_after=4))
        assert monitor.health(1) is NodeHealth.HEALTHY
        monitor.record_failure(1)
        assert monitor.health(1) is NodeHealth.HEALTHY
        monitor.record_failure(1)
        assert monitor.health(1) is NodeHealth.DEGRADED
        monitor.record_failure(1)
        monitor.record_failure(1)
        assert monitor.health(1) is NodeHealth.DOWN
        monitor.record_success(1)
        assert monitor.health(1) is NodeHealth.HEALTHY

    def test_circuit_opens_and_half_open_probe(self):
        clock = [0.0]
        policy = ResiliencePolicy(down_after=2, probe_interval=5.0)
        monitor = HealthMonitor(policy, clock=lambda: clock[0])
        monitor.record_failure(1)
        monitor.record_failure(1)
        assert monitor.health(1) is NodeHealth.DOWN
        assert not monitor.allow(1)
        clock[0] = 4.9
        assert not monitor.allow(1)
        clock[0] = 5.1
        assert monitor.allow(1)  # the half-open probe
        assert not monitor.allow(1)  # only one probe per interval
        clock[0] = 10.2
        assert monitor.allow(1)

    def test_circuit_breaker_fails_fast(self):
        """Once a node is down, operations raise CircuitOpenError without
        touching the backend."""
        backend = FaultInjectingBackend(LocalBackend(), drop_rate=1.0)
        policy = ResiliencePolicy(down_after=2, probe_interval=60.0, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                runtime.sync(1, f2f(apps.add, 1, 1))
        ops_before = backend.ops_forwarded
        with pytest.raises(CircuitOpenError):
            runtime.sync(1, f2f(apps.add, 1, 1))
        assert backend.ops_forwarded == ops_before  # failed fast, no traffic

    def test_preferred_ranks_by_health(self):
        monitor = HealthMonitor(ResiliencePolicy(degraded_after=1, down_after=2))
        monitor.record_failure(2)  # degraded
        monitor.record_failure(3)
        monitor.record_failure(3)  # down (circuit open, no probe due yet)
        assert monitor.preferred([1, 2, 3]) == [1, 2]
        assert monitor.preferred([1, 2, 3], exclude=[1]) == [2]

    def test_heartbeat_feeds_monitor(self):
        backend = LocalBackend(num_targets=2)
        runtime = Runtime(backend, policy=ResiliencePolicy())
        latencies = runtime.heartbeat()
        assert set(latencies) == {1, 2}
        assert all(lat is not None for lat in latencies.values())
        assert runtime.monitor.health(1) is NodeHealth.HEALTHY

    def test_heartbeat_failure_marks_node(self):
        backend = FaultInjectingBackend(LocalBackend(), drop_rate=1.0)
        policy = ResiliencePolicy(down_after=1)
        runtime = Runtime(backend, policy=policy)
        latencies = runtime.heartbeat()
        assert latencies[1] is None
        assert runtime.monitor.health(1) is NodeHealth.DOWN

    def test_heartbeat_requires_policy(self):
        runtime = Runtime(LocalBackend())
        with pytest.raises(OffloadError, match="ResiliencePolicy"):
            runtime.heartbeat()

    def test_tcp_ping_roundtrip(self):
        process, address = spawn_local_server(startup_timeout=15.0)
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        latency = backend.ping(1)
        assert latency >= 0.0
        backend.shutdown()


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------


class TestFailover:
    def test_idempotent_invoke_fails_over_to_healthy_peer(self):
        backend = _FlakyNodeBackend([1], num_targets=2)
        policy = ResiliencePolicy(max_retries=2, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        runtime._sleep = lambda _s: None
        assert runtime.sync(1, f2f(apps.add, 5, 6), idempotent=True) == 11
        assert backend.attempted_nodes == [1, 2]
        assert runtime.stats()["failovers"] == 1
        assert runtime.monitor.health(1) is NodeHealth.DEGRADED
        assert runtime.monitor.health(2) is NodeHealth.HEALTHY

    def test_failover_disabled_retries_same_node(self):
        backend = _FlakyNodeBackend([1], num_targets=2)
        policy = ResiliencePolicy(max_retries=2, failover=False, down_after=10, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        runtime._sleep = lambda _s: None
        with pytest.raises(BackendError, match="unplugged"):
            runtime.sync(1, f2f(apps.add, 5, 6), idempotent=True)
        assert backend.attempted_nodes == [1, 1, 1]

    def test_a_buffer_bound_invoke_retries_on_its_own_node(self):
        """Every tcp target allocates from the same addresses, so node 2
        holds another buffer at node 1's pointer: a dropped sum over
        node 1's buffer is retried on node 1, never failed over."""
        servers = [spawn_local_server() for _ in range(2)]
        fanout = FanoutBackend([
            TcpBackend(address, on_shutdown=lambda p=process: p.join(timeout=5))
            for process, address in servers
        ])
        # Ops 0-3: allocate and put on each node; op 4, the invoke, is lost.
        backend = FaultInjectingBackend(fanout, schedule={4: "drop"})
        runtime = Runtime(backend, policy=ResiliencePolicy(max_retries=2, **FAST_RETRY))
        try:
            ptrs = []
            for node, values in ((1, [1.0, 2, 3, 4]), (2, [100.0, 200, 300, 400])):
                ptrs.append(runtime.allocate(node, 4))
                runtime.put(np.array(values), ptrs[-1]).get()
            assert ptrs[0].addr == ptrs[1].addr
            assert runtime.sync(1, f2f(apps.sum_buffer, ptrs[0]), idempotent=True) == 10.0
            stats = runtime.stats()
            assert (stats["retries"], stats["failovers"]) == (1, 0)
            for ptr in ptrs:
                runtime.free(ptr)
        finally:
            runtime.shutdown()

    def test_cluster_failover_of_idempotent_invoke(self):
        """Multi-VE cluster: with VE 1 fenced as down, an idempotent
        offload addressed to it lands on a healthy peer VE."""
        cluster = AuroraCluster(num_nodes=2, ves_per_node=1)
        backend = ClusterBackend(cluster)
        policy = ResiliencePolicy(max_retries=1, down_after=1, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        runtime._sleep = lambda _s: None
        runtime.monitor.record_failure(1)  # observed crash: VE 1 is down
        assert runtime.monitor.health(1) is NodeHealth.DOWN
        assert runtime.sync(1, f2f(apps.add, 3, 4), idempotent=True) == 7
        assert runtime.stats()["failovers"] == 1
        runtime.shutdown()

    def test_cluster_ping_probes_ves(self):
        cluster = AuroraCluster(num_nodes=2, ves_per_node=1)
        runtime = Runtime(ClusterBackend(cluster), policy=ResiliencePolicy())
        latencies = runtime.heartbeat()
        assert latencies[1] == 0.0  # node-local VE
        assert latencies[2] > 0.0  # remote VE pays IB latency
        runtime.shutdown()


# ---------------------------------------------------------------------------
# fault injection determinism
# ---------------------------------------------------------------------------


def _exercise(backend: FaultInjectingBackend) -> list[str]:
    """A fixed op sequence; returns the names of surfaced fault errors."""
    surfaced = []
    runtime = Runtime(backend)
    ptr = None
    for step in range(30):
        try:
            if step % 5 == 4:
                if ptr is None:
                    ptr = runtime.allocate(1, 16)
                else:
                    runtime.free(ptr)
                    ptr = None
            else:
                runtime.sync(1, f2f(apps.add, step, 1))
        except ReproError as exc:
            surfaced.append(type(exc).__name__)
            backend.reconnect()
    return surfaced


class TestFaultInjectionDeterminism:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            drop_rate=0.2, delay_rate=0.1, disconnect_rate=0.05, corrupt_rate=0.1,
            delay_range=(0.0, 0.0),
        )
        a = FaultInjectingBackend(LocalBackend(), seed=42, **kwargs)
        b = FaultInjectingBackend(LocalBackend(), seed=42, **kwargs)
        c = FaultInjectingBackend(LocalBackend(), seed=43, **kwargs)
        surfaced_a, surfaced_b, surfaced_c = map(_exercise, (a, b, c))
        assert a.fault_log == b.fault_log
        assert len(a.fault_log) > 0
        assert surfaced_a == surfaced_b
        assert a.fault_log != c.fault_log

    def test_explicit_schedule_overrides(self):
        backend = FaultInjectingBackend(
            LocalBackend(), schedule={0: "corrupt", 2: "drop"}
        )
        runtime = Runtime(backend)
        with pytest.raises(CorruptFrameError):
            runtime.sync(1, f2f(apps.add, 1, 1))
        assert runtime.sync(1, f2f(apps.add, 1, 1)) == 2
        with pytest.raises(InjectedFaultError):
            runtime.sync(1, f2f(apps.add, 1, 1))
        assert [e.index for e in backend.fault_log] == [0, 2]

    def test_schedule_override_does_not_shift_random_faults(self):
        """Pinning one op's fault must not change which later ops fault."""
        kwargs = dict(drop_rate=0.3, delay_range=(0.0, 0.0))
        plain = FaultInjectingBackend(LocalBackend(), seed=5, **kwargs)
        pinned = FaultInjectingBackend(
            LocalBackend(), seed=5, schedule={0: "none"}, **kwargs
        )
        _exercise(plain)
        _exercise(pinned)
        plain_tail = [e for e in plain.fault_log if e.index > 0]
        pinned_tail = [e for e in pinned.fault_log if e.index > 0]
        assert plain_tail == pinned_tail

    def test_disconnect_requires_reconnect(self):
        backend = FaultInjectingBackend(LocalBackend(), schedule={1: "disconnect"})
        runtime = Runtime(backend)
        assert runtime.sync(1, f2f(apps.add, 1, 1)) == 2
        with pytest.raises(InjectedFaultError, match="disconnect"):
            runtime.sync(1, f2f(apps.add, 1, 1))
        with pytest.raises(BackendError, match="down"):
            runtime.sync(1, f2f(apps.add, 1, 1))
        backend.reconnect()
        assert runtime.sync(1, f2f(apps.add, 1, 1)) == 2

    def test_rates_validation(self):
        with pytest.raises(BackendError):
            FaultInjectingBackend(LocalBackend(), drop_rate=0.7, corrupt_rate=0.7)
        with pytest.raises(BackendError):
            FaultInjectingBackend(LocalBackend(), schedule={0: "explode"})

    def test_fault_stats(self):
        backend = FaultInjectingBackend(
            LocalBackend(), schedule={0: "drop", 1: "drop", 2: "corrupt"}
        )
        runtime = Runtime(backend)
        for _ in range(3):
            with pytest.raises(BackendError):
                runtime.sync(1, f2f(apps.add, 1, 1))
        stats = backend.stats()
        assert stats["faults_injected"] == 3
        assert stats["faults_by_kind"] == {"drop": 2, "corrupt": 1}


# ---------------------------------------------------------------------------
# satellite fixes
# ---------------------------------------------------------------------------


class TestSatelliteFixes:
    def test_truncated_frame_kills_backend_and_fails_pending(self):
        """A connection closed mid-frame must mark the backend dead and
        fail every pending operation — not leave stale expectations."""
        address = _start_misbehaving_server("truncate")
        backend = TcpBackend(address)
        runtime = Runtime(backend)
        f1 = runtime.async_(1, f2f(apps.add, 1, 1))
        f2 = runtime.async_(1, f2f(apps.add, 2, 2))
        with pytest.raises(BackendError):
            f1.get()
        assert backend._alive is False
        assert not backend._pending
        # The second in-flight future fails immediately, it does not hang.
        start = time.monotonic()
        with pytest.raises(BackendError):
            f2.get()
        assert time.monotonic() - start < 1.0
        with pytest.raises(BackendError, match="shut down"):
            runtime.sync(1, f2f(apps.add, 3, 3))

    def test_free_keeps_tracking_on_backend_failure(self):
        """A transport failure during free must not silently drop the
        buffer from the live table."""
        backend = FaultInjectingBackend(LocalBackend())
        runtime = Runtime(backend)
        ptr = runtime.allocate(1, 8)
        assert runtime.live_buffer_count == 1
        backend._schedule[backend.ops_forwarded] = "drop"  # fault the free
        with pytest.raises(InjectedFaultError):
            runtime.free(ptr)
        assert runtime.live_buffer_count == 1  # still tracked
        runtime.free(ptr)  # the retry succeeds and untracks
        assert runtime.live_buffer_count == 0
        runtime.shutdown()

    def test_shutdown_warns_on_leaked_buffers(self):
        runtime = Runtime(LocalBackend())
        ptr = runtime.allocate(1, 4)
        with pytest.warns(ResourceWarning, match="leaked") as records:
            runtime.shutdown()
        assert f"{ptr.addr:#x}" in str(records[0].message)

    def test_shutdown_without_leaks_does_not_warn(self):
        runtime = Runtime(LocalBackend())
        ptr = runtime.allocate(1, 4)
        runtime.free(ptr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runtime.shutdown()

    def test_spawn_local_server_startup_timeout_param(self):
        process, address = spawn_local_server(startup_timeout=20.0)
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        runtime = Runtime(backend)
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        runtime.shutdown()
