"""Adaptive coalescing on the real TCP wire.

The batching layer must be invisible to callers: same values, same
errors, same shutdown guarantees — while the transport stats prove the
batches actually happened and that no receiver thread exists (a caller
that waits reads the socket itself).
"""

import asyncio
import threading
import time

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.backends.base import CoalescePolicy
from repro.errors import BackendError
from repro.ham import f2f
from repro.offload import Runtime

from tests import apps

#: A policy that never flushes on its own once the pipeline is deep:
#: effectively infinite byte and frame budgets, zero idle threshold.
#: A held frame leaves only when somebody sends a roundtrip or drives.
STUCK = CoalescePolicy(max_bytes=1 << 30, max_frames=1 << 20, idle_depth=0)


def make_runtime(policy=None):
    process, address = spawn_local_server()
    backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
    if policy is not None:
        backend._coalescer.policy = policy
    return process, Runtime(backend)


class TestBatchedSemantics:
    def test_pipelined_values_identical(self):
        process, runtime = make_runtime()
        try:
            futures = [runtime.async_(1, f2f(apps.add, i, i)) for i in range(100)]
            assert [f.get() for f in futures] == [2 * i for i in range(100)]
            batch = runtime.backend.stats()["batch"]
            assert batch["frames_coalesced"] == 100
            assert batch["batches"] <= 100  # at least some coalescing
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()

    def test_get_drains_stuck_batch(self):
        """A blocking get must flush the buffer it is waiting behind."""
        process, runtime = make_runtime(STUCK)
        try:
            future = runtime.async_(1, f2f(apps.add, 20, 22))
            # Nothing trips the budgets: the frame sits in the buffer
            # until the drive path flushes it on our behalf.
            assert future.get(timeout=10.0) == 42
            reasons = runtime.backend.stats()["batch"]["flush_reasons"]
            assert reasons.get("drive", 0) >= 1
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()

    def test_test_polling_drains_stuck_batch(self):
        """A ``test()`` loop alone sends the frame it polls for."""
        process, runtime = make_runtime(STUCK)
        try:
            future = runtime.async_(1, f2f(apps.add, 20, 22))
            assert runtime.backend._coalescer.pending()[0] == 1
            deadline = time.monotonic() + 10.0
            while not future.test():
                assert time.monotonic() < deadline, "the held frame never left"
                time.sleep(0.001)
            assert future.get() == 42
            reasons = runtime.backend.stats()["batch"]["flush_reasons"]
            assert reasons.get("drive", 0) >= 1
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()

    def test_await_drains_stuck_batch(self):
        """A bare ``await`` sends the frame it waits for: its entry polls
        once, and that drive flushes the buffer."""
        process, runtime = make_runtime(STUCK)
        try:
            future = runtime.async_(1, f2f(apps.add, 20, 22))
            assert runtime.backend._coalescer.pending()[0] == 1

            async def main():
                return await asyncio.wait_for(future, timeout=10.0)

            assert asyncio.run(main()) == 42
            reasons = runtime.backend.stats()["batch"]["flush_reasons"]
            assert reasons.get("drive", 0) >= 1
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()

    def test_no_receiver_threads(self):
        """Nobody reads the socket for a caller that waits — it reads
        itself — and no thread reads for an awaiting task either: its
        loop watches the socket while, and only while, it awaits."""
        process, runtime = make_runtime()
        fd = runtime.backend._sock.fileno()
        try:
            for i in range(20):
                assert runtime.sync(1, f2f(apps.add, i, 1)) == i + 1
            names = [t.name for t in threading.enumerate()]
            assert not any("receiver" in name for name in names)

            async def main():
                selector = asyncio.get_running_loop()._selector
                future = runtime.async_(1, f2f(apps.sleep_then, 0.2, "late"))
                assert fd not in selector.get_map()
                task = asyncio.ensure_future(future)
                deadline = time.monotonic() + 10.0
                while fd not in selector.get_map() and time.monotonic() < deadline:
                    await asyncio.sleep(0.001)
                assert fd in selector.get_map()  # the awaited reply has a reader
                assert await task == "late"
                return fd in selector.get_map()  # gone with its last awaiter

            assert asyncio.run(main()) is False
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()


class TestShutdownDrain:
    def test_dead_peer_reports_stranded_batch(self):
        """Pending futures must learn how many frames never hit the wire.

        Whoever reads next finds the EOF: ``_fail_pending`` discards the
        buffer and counts what it dropped. A waiter's ``drive`` would
        flush the stuck buffer first — a ``sendmsg`` into a just-closed
        socket still succeeds, so the frames count as sent and the EOF
        error speaks of three unmatched operations instead. Both reports
        are truthful; this test is about the first, so it reads with
        ``_poll``, which neither blocks nor flushes, before any ``get``.
        """
        process, runtime = make_runtime(STUCK)
        backend = runtime.backend
        futures = [runtime.async_(1, f2f(apps.add, i, 1)) for i in range(3)]
        assert backend._coalescer.pending()[0] == 3  # all stuck in the buffer
        process.terminate()
        process.join(timeout=5)
        deadline = time.monotonic() + 10.0
        while backend._alive and time.monotonic() < deadline:
            backend._poll()
            time.sleep(0.001)
        assert not backend._alive, "nobody saw the dead peer"
        with pytest.raises(BackendError, match=r"dropped 3 coalesced frames"):
            futures[0].get(timeout=10.0)
        for future in futures[1:]:
            with pytest.raises(BackendError, match=r"\d+ bytes.*queued for send"):
                future.get(timeout=10.0)
        # Shutdown after the failure must stay clean.
        runtime.shutdown()

    def test_clean_shutdown_flushes_buffer(self):
        """Runtime.shutdown never strands a half-flushed batch."""
        process, runtime = make_runtime(STUCK)
        backend = runtime.backend
        future = runtime.async_(1, f2f(apps.add, 1, 1))
        assert backend._coalescer.pending()[0] == 1
        assert future.get(timeout=10.0) == 2
        runtime.shutdown()
        assert backend._coalescer.pending() == (0, 0)
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()


class TestIdleLatencyPath:
    def test_single_offload_flushes_immediately(self):
        """Depth <= idle_depth: a lone request is never held. (A plain
        sync passes no coalescer at all: its frame is sent directly.)"""
        process, runtime = make_runtime()
        try:
            start = time.monotonic()
            assert runtime.async_(1, f2f(apps.add, 1, 2)).get() == 3
            # Generous bound: the point is that nothing held the frame
            # across 1 RTT.
            assert time.monotonic() - start < 2.0
            reasons = runtime.backend.stats()["batch"]["flush_reasons"]
            assert reasons.get("idle", 0) >= 1
        finally:
            runtime.shutdown()
            if process.is_alive():  # pragma: no cover - cleanup safety
                process.terminate()
