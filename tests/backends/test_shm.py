"""Tests for the shared-memory backend (SPSC rings, forked target)."""

import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.backends import ShmBackend, create_backend, spawn_shm_server
from repro.backends.shm import DEFAULT_RING_CAPACITY, ShmSegment
from repro.errors import (
    BackendError,
    OffloadTimeoutError,
    RemoteExecutionError,
)
from repro.ham import f2f
from repro.offload import ResiliencePolicy, Runtime
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.fresh import ROOT


@pytest.fixture()
def rt():
    process, segment = spawn_shm_server(workers=4)
    backend = ShmBackend(
        segment,
        alive_fn=process.is_alive,
        on_shutdown=lambda: process.join(timeout=5),
    )
    runtime = Runtime(backend)
    yield runtime
    runtime.shutdown()
    if process.is_alive():  # pragma: no cover - cleanup safety
        process.terminate()


def _flip_cursor(segment, word, stop_word, values):
    cursors = segment.cursors
    while not cursors[stop_word]:
        for value in values:
            cursors[word] = value


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs a second CPU to race on"
)
def test_ring_cursor_loads_are_never_torn():
    """A cursor is one aligned 8-byte access, not eight byte stores.

    A second process flips the h2t tail word between two values whose
    halves differ; ``struct.pack_into("<Q")`` on the same bytes showed a
    fifth of the loads as a mix of the two (a torn tail is how a
    consumer reads ``corrupt frame ... length 0``). Whatever the
    interleaving, a load must return one of the values stored.
    """
    values = (0x00000000FFFFFFFF, 0xFFFFFFFF00000000)
    word, stop_word = 64 // 8, 320 // 8  # h2t tail; an unused header word
    segment = ShmSegment.create()
    writer = multiprocessing.get_context("fork").Process(
        target=_flip_cursor, args=(segment, word, stop_word, values), daemon=True
    )
    writer.start()
    try:
        cursors = segment.cursors
        while not cursors[word] and writer.is_alive():
            pass  # zero is a torn value too once the writer has started
        seen = {cursors[word] for _ in range(1_000_000)}
    finally:
        segment.cursors[stop_word] = 1
        writer.join(timeout=5)
        segment.close()
        segment.unlink()
    assert seen <= set(values)
    assert writer.exitcode == 0


class TestShmOffload:
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

    def test_out_of_request_order_completion(self, rt):
        """The worker pool overlaps kernels, so a fast invoke posted
        second overtakes a slow one posted first."""
        slow = rt.async_(1, f2f(apps.sleep_then, 0.6, "slow"))
        fast = rt.async_(1, f2f(apps.sleep_then, 0.02, "fast"))
        assert fast.get(timeout=10.0) == "fast"
        assert not slow.test()
        assert slow.get(timeout=10.0) == "slow"

    def test_remote_exception(self, rt):
        with pytest.raises(RemoteExecutionError, match="shm boom"):
            rt.sync(1, f2f(apps.raise_value_error, "shm boom"))
        # The rings survive the error.
        assert rt.sync(1, f2f(apps.add, 1, 1)) == 2

    def test_numpy_payload(self, rt):
        arr = np.arange(1000.0)
        back = rt.sync(1, f2f(apps.echo, arr))
        np.testing.assert_array_equal(back, arr)

    def test_ping(self, rt):
        rtt = rt.backend.ping(1)
        assert 0.0 < rtt < 5.0

    def test_stats(self, rt):
        rt.sync(1, f2f(apps.add, 1, 2))
        stats = rt.backend.stats()
        assert stats["backend"] == "shm"
        assert stats["invokes_posted"] >= 1
        assert stats["bytes_sent"] > 0
        assert stats["bytes_received"] > 0
        assert stats["ring_capacity"] == DEFAULT_RING_CAPACITY


class TestShmMemory:
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

    def test_transfer_larger_than_ring_is_chunked(self, rt):
        """A bulk transfer bigger than a ring must flow through in
        chunks rather than fail or wedge the ring."""
        n = (2 * DEFAULT_RING_CAPACITY) // 8 + 1111
        data = np.random.default_rng(7).random(n)
        ptr = rt.allocate(1, n)
        rt.put(data, ptr)
        back = np.zeros(n)
        rt.get(ptr, back)
        np.testing.assert_array_equal(back, data)


class TestShmLifecycle:
    def test_attach_by_segment_name(self):
        """A host can attach with just the segment name (the printed
        handle of a standalone ``target_main --transport shm``)."""
        process, segment = spawn_shm_server(workers=2)
        backend = ShmBackend(
            segment.name, on_shutdown=lambda: process.join(timeout=5)
        )
        runtime = Runtime(backend)
        try:
            assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        finally:
            runtime.shutdown()
        # The spawning side still owns the segment object; release it.
        segment.close()
        segment.unlink()

    def test_shutdown_unlinks_segment(self):
        process, segment = spawn_shm_server(workers=2)
        name = segment.name
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
        Runtime(backend).shutdown()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert not process.is_alive()

    def test_shutdown_is_idempotent(self):
        process, segment = spawn_shm_server(workers=2)
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
        backend.shutdown()
        backend.shutdown()
        assert not process.is_alive()

    def test_descriptor_names_segment(self):
        process, segment = spawn_shm_server(workers=2)
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
        try:
            assert backend.num_nodes() == 2
            descriptor = backend.descriptor(1)
            assert segment.name in descriptor.name
        finally:
            backend.shutdown()

    def test_create_backend_factory(self):
        backend = create_backend("shm", workers=2)
        runtime = Runtime(backend)
        try:
            assert runtime.sync(1, f2f(apps.add, 20, 22)) == 42
        finally:
            runtime.shutdown()

    def test_foreign_segment_rejected(self):
        from multiprocessing import resource_tracker, shared_memory

        raw = shared_memory.SharedMemory(create=True, size=8192)
        try:
            with pytest.raises(BackendError, match="not a HAM shm"):
                ShmSegment.attach(raw.name)
        finally:
            # The failed attach deliberately unregistered the name from
            # this process's resource tracker; restore the creator's
            # registration so unlink() accounting stays balanced.
            resource_tracker.register(raw._name, "shared_memory")
            raw.close()
            raw.unlink()


class TestShmBackpressure:
    @pytest.mark.slow_failure
    def test_full_window_fails_fast_when_target_is_busy(self):
        """With the window full of still-executing invokes, the next
        post must raise within the window timeout, not block forever."""
        process, segment = spawn_shm_server(workers=1)
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=10),
        )
        # The policy deadline is what bounds the wait for a slot.
        runtime = Runtime(backend, policy=ResiliencePolicy(deadline=0.2), window=2)
        try:
            runtime.async_(1, f2f(apps.sleep_then, 1.0, "a"))
            runtime.async_(1, f2f(apps.sleep_then, 1.0, "b"))
            with pytest.raises(OffloadTimeoutError, match="window full"):
                runtime.async_(1, f2f(apps.add, 3, 3))
        finally:
            runtime.shutdown()


class TestShmTelemetry:
    def test_the_execute_record_carries_the_target_pid(self):
        telemetry.enable()  # before the fork: the target disables its own
        try:
            process, segment = spawn_shm_server(workers=2)
            backend = ShmBackend(
                segment,
                alive_fn=process.is_alive,
                on_shutdown=lambda: process.join(timeout=5),
            )
            runtime = Runtime(backend)
            try:
                runtime.sync(1, f2f(apps.add, 1, 2))
                (execute,) = telemetry.get().spans("offload.execute")
                assert execute.pid == process.pid
                assert execute.attrs["handler"] == f2f(apps.add).type_name
            finally:
                runtime.shutdown()
        finally:
            telemetry.disable()

    def test_host_spans_cover_offload_phases(self):
        telemetry.enable()
        try:
            process, segment = spawn_shm_server(workers=2)
            backend = ShmBackend(
                segment,
                alive_fn=process.is_alive,
                on_shutdown=lambda: process.join(timeout=5),
            )
            runtime = Runtime(backend)
            try:
                runtime.sync(1, f2f(apps.add, 1, 2))
            finally:
                runtime.shutdown()
            names = {record.name for record in telemetry.get().records()}
            assert "offload.enqueue" in names
            assert "offload.reply" in names
        finally:
            telemetry.disable()


#: A process that offloads over shm and exits without ``finalize()``:
#: by returning, or by an uncaught exception (``argv[1] == "raise"``),
#: with one offload left pending, for the flight recorder's exit trigger.
_UNFINALIZED = """
import sys
from repro.ham import f2f
from repro.offload import api
from repro.telemetry import flightrecorder
from tests import apps

flightrecorder.configure(sys.argv[2], install_signal=False)
runtime = api.init("shm")
backend = runtime.backend
print(backend.segment.name, backend.introspect_target()["pid"], flush=True)
assert runtime.sync(1, f2f(apps.echo, 3)) == 3
runtime.async_(1, f2f(apps.echo, 4))  # never collected
if sys.argv[1] == "raise":
    raise RuntimeError("the script fails")
"""


@pytest.mark.parametrize("exit_kind", ["return", "raise"])
def test_an_exit_without_finalize_leaves_nothing_behind(exit_kind, tmp_path):
    """The segment's owner releases its views and unlinks it at exit:
    no ``BufferError`` from ``SharedMemory.__del__``, no leak warning of
    the resource tracker, no /dev/shm entry, no target left running;
    and the pending offload still dumps the ``atexit_pending`` bundle."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    result = subprocess.run(
        [sys.executable, "-c", _UNFINALIZED, exit_kind, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == (1 if exit_kind == "raise" else 0), result.stderr
    name, pid = result.stdout.split()
    for text in ("BufferError", "leaked shared_memory"):
        assert text not in result.stderr, result.stderr
    assert not os.path.exists(f"/dev/shm/{name}")
    for _ in range(1000):  # an orphaned zombie is reaped by init
        if not os.path.exists(f"/proc/{pid}"):
            break
        time.sleep(0.01)
    assert not os.path.exists(f"/proc/{pid}"), "the target outlived its host"
    reasons = [flightrecorder.load_bundle(path)["manifest"]["reason"]
               for path in flightrecorder.find_bundles(tmp_path)]
    assert "atexit_pending" in reasons
