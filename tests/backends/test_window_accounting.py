"""Regression tests: the in-flight window never leaks slots.

A slot that is acquired for a post and then orphaned by an exception on
the send/execute path would be held forever; enough of them and the
window drains to zero capacity and every later offload deadlocks. The
slot of a post that raised is freed in one place, ``Runtime._offload``,
whatever the backend; these tests flood each backend's failure path with
a window small enough that even a few leaked slots would wedge the
runtime, then prove the next offload still works. A freed slot also
goes to the right thread: the oldest parked waiter (``TestFifoHandOff``).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.backends import FaultInjectingBackend, LocalBackend, TcpBackend
from repro.backends.base import InflightWindow
from repro.backends.tcp import spawn_local_server
from repro.errors import BackendError, InjectedFaultError, OffloadTimeoutError
from repro.ham import f2f
from repro.offload import Runtime

from tests import apps
from tests.offload.stubs import DrivenStubBackend, ThreadedStubBackend

FLOOD = 50
WINDOW = 4
#: Bound of every wait below: long enough never to expire on a green run.
WAIT = 10.0


def _until(condition) -> bool:
    deadline = time.monotonic() + WAIT
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


class TestLocalBackendAccounting:
    def test_execute_failure_frees_the_slot(self, monkeypatch):
        runtime = Runtime(LocalBackend(), window=WINDOW)

        def boom(*args, **kwargs):
            raise BackendError("injected execute failure")

        monkeypatch.setattr("repro.backends.local.execute_message", boom)
        for _ in range(FLOOD):
            with pytest.raises(BackendError):
                runtime.async_(1, f2f(apps.add, 1, 2))
            assert runtime.window.in_flight == 0
        monkeypatch.undo()
        # The window survived the flood with full capacity: a real invoke
        # (which needs a slot) still completes.
        assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        assert runtime.window.in_flight == 0
        runtime.shutdown()

    def test_non_backend_error_also_frees_the_slot(self, monkeypatch):
        runtime = Runtime(LocalBackend(), window=WINDOW)

        def boom(*args, **kwargs):
            raise RuntimeError("unexpected crash inside the transport")

        monkeypatch.setattr("repro.backends.local.execute_message", boom)
        for _ in range(FLOOD):
            with pytest.raises(RuntimeError):
                runtime.async_(1, f2f(apps.add, 1, 2))
            assert runtime.window.in_flight == 0
        monkeypatch.undo()
        assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        runtime.shutdown()


class TestTcpBackendAccounting:
    def test_send_failure_frees_slot_and_pending_entry(self):
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(5.0))
        runtime = Runtime(backend, window=WINDOW)
        try:
            real_post = backend._post_frame

            def refuse(op, corr, *parts):
                raise BackendError("injected send failure")

            # _post_frame is the seam every invoke frame crosses on its
            # way to the wire (coalesced or direct).
            backend._post_frame = refuse
            for _ in range(FLOOD):
                with pytest.raises(BackendError):
                    runtime.async_(1, f2f(apps.add, 1, 2))
                assert runtime.window.in_flight == 0
                assert backend._pending_count() == 0
            backend._post_frame = real_post
            # Capacity intact: more invokes than the window can hold at
            # once all round-trip (a leaked slot would deadlock here).
            futures = [
                runtime.async_(1, f2f(apps.add, i, i)) for i in range(WINDOW * 2)
            ]
            assert [f.get(timeout=10.0) for f in futures] == [
                2 * i for i in range(WINDOW * 2)
            ]
            assert runtime.window.in_flight == 0
        finally:
            runtime.shutdown()


class TestFaultProxyAccounting:
    """A fault the proxy injects raises before the transport is reached."""

    def test_injected_drops_free_the_slot(self):
        proxy = FaultInjectingBackend(
            LocalBackend(), schedule={i: "drop" for i in range(FLOOD)}
        )
        runtime = Runtime(proxy, window=WINDOW)
        for _ in range(FLOOD):
            with pytest.raises(InjectedFaultError):
                runtime.async_(1, f2f(apps.add, 1, 2))
            assert runtime.window.in_flight == 0
        assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        runtime.shutdown()

    def test_injected_disconnect_frees_the_slot(self):
        proxy = FaultInjectingBackend(LocalBackend(), schedule={0: "disconnect"})
        runtime = Runtime(proxy, window=WINDOW)
        with pytest.raises(InjectedFaultError):
            runtime.async_(1, f2f(apps.add, 1, 2))
        for _ in range(FLOOD):  # down until reconnect(): each post raises
            with pytest.raises(BackendError, match="connection is down"):
                runtime.async_(1, f2f(apps.add, 1, 2))
            assert runtime.window.in_flight == 0
        proxy.reconnect()
        assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        assert runtime.window.in_flight == 0
        runtime.shutdown()


class TestWaitLoopStress:
    """Eight threads on two slots, switching every microsecond: a lost
    wake-up in the window's one wait loop strands a poster (the joins
    are bounded), a lost update leaves a slot taken at the end."""

    @pytest.mark.parametrize("driven", [False, True], ids=["threaded", "driven"])
    def test_every_poster_gets_through(self, driven):
        backend = DrivenStubBackend() if driven else ThreadedStubBackend()
        if driven:
            backend.gate.set()
        runtime = Runtime(backend, window=2)
        failures: list[BaseException] = []

        def poster(index: int) -> None:
            try:
                for i in range(100):
                    future = runtime.async_(1, f2f(apps.add, index, i))
                    assert runtime.window.in_flight <= 2
                    assert future.get(timeout=30.0) == index + i
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=poster, args=(index,), daemon=True)
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert runtime.window.in_flight == 0
        runtime.shutdown()


class TestFifoHandOff:
    """A slot freed while somebody is parked is the oldest waiter's."""

    def test_the_freeing_thread_cannot_take_the_slot_back(self):
        window = InflightWindow(1)
        window.acquire()
        granted = threading.Event()

        def waiter() -> None:
            window.acquire(timeout=WAIT)
            granted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert _until(lambda: window.queued == 1)
        window.cancel()
        with pytest.raises(OffloadTimeoutError, match="window full"):
            window.acquire(timeout=0)
        assert granted.wait(WAIT) and window.in_flight == 1
        thread.join(WAIT)
        window.cancel()
        assert window.in_flight == window.queued == 0

    def test_parked_syncs_on_a_driven_transport_post_in_arrival_order(self):
        """Waiters that drive the transport themselves (shm, the
        simulators) still take freed slots oldest first."""
        backend = DrivenStubBackend()
        runtime = Runtime(backend, window=1)
        blocker = runtime.async_(1, f2f(apps.echo, -1))  # the one slot
        failures: list[BaseException] = []

        def sync(index: int) -> None:
            try:
                assert runtime.sync(1, f2f(apps.echo, index)) == index
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = []
        for index in range(8):  # one at a time: arrival order is index order
            threads.append(threading.Thread(target=sync, args=(index,), daemon=True))
            threads[-1].start()
            assert _until(lambda: runtime.window.queued == index + 1)
        backend.gate.set()  # from here on a drive completes something
        for thread in threads:
            thread.join(WAIT)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert blocker.get(timeout=WAIT) == -1
        assert [args[0] for args in backend.posted_args] == [-1, *range(8)]
        assert runtime.window.in_flight == 0
        runtime.shutdown()

