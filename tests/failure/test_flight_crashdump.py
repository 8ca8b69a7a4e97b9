"""Peer death must leave a readable flight-recorder bundle behind.

The acceptance scenario for the black-box recorder: SIGKILL the target
mid-burst and a post-mortem bundle — readable by
``repro.telemetry.report`` — appears in the crash directory, while a
clean shutdown leaves nothing.
"""

import os
import signal
import time

import pytest

from repro.backends import (
    FanoutBackend,
    FaultInjectingBackend,
    ShmBackend,
    TcpBackend,
    spawn_local_server,
    spawn_shm_server,
)
from repro.errors import ReproError
from repro.ham import f2f
from repro.offload import ResiliencePolicy, Runtime
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.report import render_bundle

from tests import apps
from tests.offload.stubs import ThreadedStubBackend

#: Fast backoff so the retry never dominates test wall-clock.
FAST_RETRY = dict(backoff_base=1e-4, backoff_max=1e-3, jitter=0.0)


@pytest.fixture(autouse=True)
def _armed_recorder(tmp_path):
    """Arm the global recorder at tmp_path; disarm afterwards."""
    flight = flightrecorder.get()
    saved_dir, saved_debounce = flight.crash_dir, flight.debounce
    flightrecorder.configure(tmp_path, install_signal=False)
    yield tmp_path
    flight.crash_dir, flight.debounce = saved_dir, saved_debounce


def _drive_burst_and_kill(runtime, process):
    flight = flightrecorder.get()
    dumped = len(flight.dumps)
    futures = [
        runtime.async_(1, f2f(apps.sleep_then, 30.0, i)) for i in range(3)
    ]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5)
    for future in futures:
        with pytest.raises(ReproError):
            future.get(timeout=10.0)
    # The dump may run on the receiving thread while a failed send has
    # already raised here: the runtime stays attached until it is done.
    deadline = time.monotonic() + 10.0
    while not any("peer_death" in b.name for b in flight.dumps[dumped:]):
        assert time.monotonic() < deadline, "no peer_death bundle dumped"
        time.sleep(0.01)


def _assert_peer_death_bundle(crash_dir, transport):
    bundles = flightrecorder.find_bundles(crash_dir)
    deaths = [b for b in bundles if "peer_death" in b.name]
    assert deaths, f"no peer_death bundle in {list(bundles)}"
    # The bundle of the detection (tearing the dead connection down at
    # shutdown, the runtime detached, may dump another).
    loaded = flightrecorder.load_bundle(deaths[0])
    manifest = loaded["manifest"]
    assert manifest["reason"] == "peer_death"
    assert manifest["attrs"]["transport"] == transport
    names = [event["name"] for event in loaded["events"]]
    assert "flight.trigger" in names
    # What the death stranded, from the one state snapshot ...
    [state] = loaded["state"]
    assert state["backend"]["backend"] == transport
    assert state["window"]["in_flight"] == manifest["pending"]
    assert len(state["window"]["handles"]) == state["window"]["in_flight"]
    # ... and the offline report renders it without choking.
    text = render_bundle(loaded)
    assert "reason=peer_death" in text
    assert f"in flight: {manifest['pending']}/" in text
    [attrs_line] = [line for line in text.splitlines()
                    if line.startswith("  trigger attrs: ")]
    assert f"transport={transport}" in attrs_line


class TestSigkillMidBurst:
    def test_shm_target_death_dumps_bundle(self, _armed_recorder):
        process, segment = spawn_shm_server()
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
        runtime = Runtime(backend)
        try:
            _drive_burst_and_kill(runtime, process)
        finally:
            runtime.shutdown()
        _assert_peer_death_bundle(_armed_recorder, "shm")

    def test_tcp_target_death_dumps_bundle(self, _armed_recorder):
        process, address = spawn_local_server()
        backend = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
        runtime = Runtime(backend)
        try:
            _drive_burst_and_kill(runtime, process)
        finally:
            runtime.shutdown()
        _assert_peer_death_bundle(_armed_recorder, "tcp")


class TestCleanShutdownIsNotACrash:
    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_clean_shutdown_leaves_no_bundle(self, _armed_recorder, transport):
        if transport == "shm":
            process, segment = spawn_shm_server()
            backend = ShmBackend(
                segment,
                alive_fn=process.is_alive,
                on_shutdown=lambda: process.join(timeout=5),
            )
        else:
            process, address = spawn_local_server()
            backend = TcpBackend(
                address, on_shutdown=lambda: process.join(timeout=5)
            )
        runtime = Runtime(backend)
        runtime.sync(1, f2f(apps.add, 1, 2))
        runtime.shutdown()
        deaths = [
            b for b in flightrecorder.find_bundles(_armed_recorder)
            if "peer_death" in b.name
        ]
        assert deaths == []


def _event_names(bundle, since_ns):
    """The names of the bundle's events noted at or after ``since_ns``
    (``time.time_ns()``): the black box is process-wide, and an earlier
    test's events are still in it."""
    return [
        event["name"] for event in flightrecorder.load_bundle(bundle)["events"]
        if event["ts_ns"] >= since_ns
    ]


class TestEveryEventReachesTheBlackBox:
    """What follows the retry is in the bundle too, telemetry on or off."""

    def test_retry_then_failover_on_a_tcp_fanout(self, _armed_recorder):
        since_ns = time.time_ns()
        servers = [spawn_local_server() for _ in range(2)]
        fanout = FanoutBackend([
            TcpBackend(address, on_shutdown=lambda p=process: p.join(timeout=5))
            for process, address in servers
        ])
        # The first forwarded operation — the invoke on node 1 — is lost.
        backend = FaultInjectingBackend(fanout, schedule={0: "drop"})
        runtime = Runtime(backend, policy=ResiliencePolicy(
            max_retries=2, **FAST_RETRY))
        try:
            assert runtime.sync(1, f2f(apps.add, 5, 6), idempotent=True) == 11
            assert runtime.stats()["failovers"] == 1
            bundle = flightrecorder.get().dump("manual")
        finally:
            runtime.shutdown()
        names = _event_names(bundle, since_ns)
        assert names.index("resilience.retry") < names.index("resilience.failover")

    def test_retry_failover_and_the_fault_behind_them(self, _armed_recorder):
        since_ns = time.time_ns()
        telemetry.enable()
        try:
            # Node 1 loses the invoke, node 2 (the failover) answers.
            backend = FaultInjectingBackend(
                ThreadedStubBackend(num_targets=3), schedule={0: "drop"})
            runtime = Runtime(backend, policy=ResiliencePolicy(
                max_retries=2, **FAST_RETRY))
            assert runtime.sync(1, f2f(apps.add, 20, 22), idempotent=True) == 42
            bundle = flightrecorder.get().dump("manual")
            [state] = flightrecorder.load_bundle(bundle)["state"]
            runtime.shutdown()
        finally:
            telemetry.disable()
        names = _event_names(bundle, since_ns)
        order = [names.index(name) for name in (
            "fault.injected", "resilience.retry", "resilience.failover")]
        assert order == sorted(order)
        assert (state["retries"], state["failovers"]) == (1, 1)
