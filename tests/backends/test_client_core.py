"""The client core (``FramedClient``): reply matching, the drive, peer loss.

One ``_dispatch_reply``, one drive (``_wait`` / ``_pump`` / ``_poll``, and
an awaiting loop's polls) and one ``_fail_pending`` serve both transports, so every
case runs against an in-process shm and tcp server (the harness of
``test_target_dispatch``) whose replies the test rewrites, or holds
back, on their way out; the rows that SIGKILL the target fork one.
``traced`` installs a recorder, whose reply spans every reader records
on the way — traced or not, the same errors must surface. No assertion
reads a clock; waits
carry a 10 s timeout only so a regression fails instead of hanging.
"""

import asyncio
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.backends import (
    ShmBackend,
    TcpBackend,
    spawn_local_server,
    spawn_shm_server,
)
from repro.backends._server import (
    _FRAME_META,
    _PREFIX,
    OP_ALLOC,
    OP_INVOKE,
    OP_PING,
    OP_REPLY_BIT,
)
from repro.backends.shm import ShmSegment, segment_prefix
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham import f2f
from repro.ham.registry import Catalog
from repro.offload import Runtime
from repro.offload import api as offload_api
from repro.offload.future import AwaitingLoop
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.backends.test_target_dispatch import (
    _HOOKS,
    WAIT,
    Target,
    dispatch_hook,
)
from tests.leaks import resources
from tests.offload.test_offload_budget import FRAMED_RECORDS
from tests.offload.test_plain_sync import _HeldDriveLock


@pytest.fixture(params=["shm-traced", "shm", "tcp-traced", "tcp"])
def client(request):
    transport, _, traced = request.param.partition("-")
    telemetry.disable()
    if traced:
        telemetry.enable()
    target = Target(transport)
    target.connect()
    try:
        yield target
    finally:
        target.server.__dict__.pop("_reply", None)  # what the test rewrote
        target.runtime.shutdown()
        target.thread.join(WAIT)
        telemetry.disable()
    assert not target.thread.is_alive()


def _rewrite_replies(target, rewrite):
    """Pass every reply the server sends through ``rewrite(send, op, corr,
    parts)``, which calls ``send(op, corr, *parts)`` as often as it likes."""
    send = target.server._reply
    target.server._reply = lambda op, corr, *parts: rewrite(send, op, corr, parts)


def _settled(target):
    """Nothing filed in the correlation table, no window slot held."""
    return (target.backend._pending_count() == 0
            and target.runtime.window.in_flight == 0)


class TestDispatchReply:
    def test_unknown_correlation_id_is_counted_and_fails_nothing(self, client):
        def with_stray(send, op, corr, parts):
            send(op, corr + (1 << 40), *parts)  # nobody filed this id
            send(op, corr, *parts)

        _rewrite_replies(client, with_stray)
        backend = client.backend
        assert client.runtime.sync(1, f2f(apps.add, 20, 22)) == 42
        addr = backend.alloc_buffer(1, 8)
        backend.free_buffer(1, addr)
        assert _settled(client) and backend._alive
        recorder = telemetry.get()
        if recorder is not None:  # the counter only exists while recording
            counters = recorder.metrics.snapshot()["counters"]
            assert counters[f"{backend.name}.unmatched_replies"] >= 3

    def test_wrong_op_fails_an_invoke_sink(self, client):
        def as_ping(send, op, corr, parts):
            if op == OP_INVOKE | OP_REPLY_BIT:
                op = OP_PING | OP_REPLY_BIT
            send(op, corr, *parts)

        _rewrite_replies(client, as_ping)
        future = client.runtime.async_(1, f2f(apps.add, 1, 2))
        with pytest.raises(BackendError, match="expected reply to op 0x1, got 0x87"):
            future.get(timeout=WAIT)
        with pytest.raises(BackendError, match="expected reply to op 0x1, got 0x87"):
            client.runtime.sync(1, f2f(apps.add, 1, 2), timeout=WAIT)
        assert _settled(client)
        assert client.backend.ping(1) >= 0.0  # the stream itself is intact

    def test_wrong_op_fails_a_sync_sink(self, client):
        def as_ping(send, op, corr, parts):
            if op == OP_ALLOC | OP_REPLY_BIT:
                op = OP_PING | OP_REPLY_BIT
            send(op, corr, *parts)

        _rewrite_replies(client, as_ping)
        with pytest.raises(BackendError, match="expected reply to op 0x2, got 0x87"):
            client.backend.alloc_buffer(1, 8)
        assert _settled(client)
        assert client.runtime.sync(1, f2f(apps.add, 1, 2)) == 3

    def test_failure_reply_carries_the_remote_traceback(self, client):
        future = client.runtime.async_(1, f2f(apps.raise_value_error, "boom"))
        with pytest.raises(RemoteExecutionError, match="ValueError: boom") as invoke:
            future.get(timeout=WAIT)
        assert "raise_value_error" in invoke.value.remote_traceback
        with pytest.raises(RemoteExecutionError, match="not inside a live") as sync:
            client.backend.read_buffer(1, 0xDEAD, 16)
        assert "Traceback" in sync.value.remote_traceback
        assert _settled(client)
        assert client.runtime.sync(1, f2f(apps.add, 1, 2)) == 3


def test_reading_stats_records_nothing(client):
    """``stats()`` is a getter — its dict is what ``top`` and crash
    bundles read — and a traced offload mirrors no transport depth onto
    a gauge either."""
    assert client.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    stats = client.backend.stats()
    assert stats["pending_replies"] == 0 and stats["invokes_posted"] == 1
    recorder = telemetry.get()
    if recorder is not None:
        mirrors = [name for name in recorder.metrics.snapshot()["gauges"]
                   if name.endswith((".pending_replies", "_queue_bytes"))
                   or name.startswith(("shm.ring_fill.", "shm.wait."))]
        assert mirrors == []


def test_backend_keeps_a_shared_key_instance_dict(client):
    """CPython shares instance-dict keys up to 30 attributes; one more and
    every ``self.x`` of the hot path slows down (ShmBackend with 32 read
    +3 us per empty offload on perfbench sync_shm, 5 of 5 pairs)."""
    assert len(vars(client.backend)) <= 30


def _lose_peer(target):
    """What the host sees when the target goes away mid-conversation."""
    if hasattr(target.server, "_conn"):
        target.server._conn.shutdown(socket.SHUT_RDWR)
        return
    # The shm target stops serving once its client's pid is dead; the
    # host then reads the STOPPED state word.
    child = multiprocessing.get_context("fork").Process(target=int)
    child.start()
    child.join(WAIT)
    target.segment.client_pid = child.pid


class TestPeerLoss:
    def test_fails_both_kinds_of_sink_and_frees_every_slot(self, client, capfd):
        swallowed = threading.Semaphore(0)
        _rewrite_replies(client, lambda *_reply: swallowed.release())
        backend = client.backend
        futures = [client.runtime.async_(1, f2f(apps.add, i, 1)) for i in range(3)]
        sync_error = []

        def blocked_alloc():
            try:
                backend.alloc_buffer(1, 8)
            except BackendError as exc:
                sync_error.append(exc)

        waiter = threading.Thread(target=blocked_alloc)
        waiter.start()
        for _ in range(4):  # all four requests reached the target
            assert swallowed.acquire(timeout=WAIT)
        _lose_peer(client)
        waiter.join(WAIT)
        assert not waiter.is_alive() and len(sync_error) == 1
        for future in futures:
            with pytest.raises(BackendError):
                future.get(timeout=WAIT)
        assert _settled(client) and not backend._alive
        with pytest.raises(BackendError, match="is shut down"):
            backend.ping(1)
        client.thread.join(WAIT)
        assert "stopped serving" in capfd.readouterr().err


def _hold_replies(target):
    """Keep every reply the server would send; returns the list of
    ``(send, op, corr, parts)`` and a semaphore released once per reply."""
    held, arrived = [], threading.Semaphore(0)

    def hold(send, op, corr, parts):
        held.append((send, op, corr, parts))
        arrived.release()

    _rewrite_replies(target, hold)
    return held, arrived


def _until(condition):
    deadline = time.monotonic() + WAIT
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def _led(backend):
    """Whether some thread holds the drive lock (reads replies) now."""
    if backend._drive_lock.acquire(blocking=False):
        backend._drive_lock.release()
        return False
    return True


def _watching(backend):
    """How many asyncio loops await replies of ``backend`` now."""
    return sum(key[0] is backend for key in list(AwaitingLoop._live))


async def _eventually(condition):
    """``_until`` for a coroutine: the loop keeps running meanwhile."""
    deadline = time.monotonic() + WAIT
    while not condition() and time.monotonic() < deadline:
        await asyncio.sleep(0.001)
    return condition()


class TestTheDrive:
    def test_leader_completes_the_follower_who_then_takes_over(self, client):
        """Three offloads, a waiter each, their replies held by the test.
        The first waiter leads and completes the second one's reply; when
        the leader leaves with its own, the third — a follower so far —
        reads for itself."""
        held, arrived = _hold_replies(client)
        futures = {name: client.runtime.async_(1, f2f(apps.echo, name))
                   for name in "abc"}
        ids = {name: future._handle.correlation_id
               for name, future in futures.items()}
        got = {}

        def waiter(name):
            thread = threading.Thread(
                target=lambda: got.setdefault(name, futures[name].get(timeout=WAIT)))
            thread.start()
            return thread

        def release(name):
            """Send the held reply of ``name`` (the target waits idle)."""
            (reply,) = [reply for reply in held if reply[2] == ids[name]]
            send, op, corr, parts = reply
            send(op, corr, *parts)

        leader = waiter("a")
        assert _until(lambda: _led(client.backend))
        for _ in "abc":  # the leader's drive sent what the host held
            assert arrived.acquire(timeout=WAIT)
        followers = {name: waiter(name) for name in "bc"}
        release("b")
        followers["b"].join(WAIT)
        assert got == {"b": "b"} and leader.is_alive()
        release("a")
        leader.join(WAIT)
        assert got == {"a": "a", "b": "b"} and followers["c"].is_alive()
        release("c")  # nobody is left to read it but its own waiter
        followers["c"].join(WAIT)
        assert got == {"a": "a", "b": "b", "c": "c"}
        assert _settled(client)

    def test_soft_timeout_mid_frame_then_the_late_reply_is_matched(self, client):
        """Deadlines are soft: one that expires with half a reply on the
        wire consumes none of it, and the rest completes the same future.
        (A ring publishes whole frames only: on shm the reply is just late.)"""
        held, arrived = _hold_replies(client)
        backend = client.backend
        future = client.runtime.async_(1, f2f(apps.add, 20, 22))
        assert arrived.acquire(timeout=WAIT)
        send, op, corr, parts = held.pop()
        frame = _PREFIX.pack(_FRAME_META + sum(map(len, parts)), op, corr)
        frame += b"".join(parts)
        conn = getattr(client.server, "_conn", None)
        if conn is not None:
            conn.sendall(frame[:7])
        with pytest.raises(OffloadTimeoutError):
            future.get(timeout=0.05)
        with pytest.raises(OffloadTimeoutError):  # a sync op, same rule
            backend._roundtrip(OP_PING, timeout=0.05)
        assert arrived.acquire(timeout=WAIT)
        if conn is not None:
            assert backend._parser.buffered == 7
            conn.sendall(frame[7:])
        else:
            send(op, corr, *parts)
        assert future.get(timeout=WAIT) == 42
        send, op, corr, parts = held.pop()
        send(op, corr, *parts)  # the late PING reply: matched, not stray
        client.server.__dict__.pop("_reply")
        assert backend.ping(1) >= 0.0
        assert _settled(client)
        recorder = telemetry.get()
        if recorder is not None:
            counters = recorder.metrics.snapshot()["counters"]
            assert f"{backend.name}.unmatched_replies" not in counters

    def test_a_follower_roundtrip_times_out_softly(self, client):
        """Behind another reader a sync op files a handle and waits for
        it (``_wait``): past its deadline the handle rides on the error,
        still filed, and the late reply completes it, not a stray."""
        held, arrived = _hold_replies(client)
        backend = client.backend
        other = _HeldDriveLock(backend)
        try:
            with pytest.raises(OffloadTimeoutError) as timed_out:
                backend._roundtrip(OP_PING, timeout=0.05)
        finally:
            other.release()
        handle = timed_out.value.handle
        assert handle is not None and not handle.completed
        assert backend._pending_count() == 1
        assert arrived.acquire(timeout=WAIT)
        send, op, corr, parts = held.pop()
        assert corr == handle.correlation_id
        send(op, corr, *parts)  # the late reply
        client.server.__dict__.pop("_reply")
        assert backend.ping(1) >= 0.0  # reads it on the way to its own
        assert handle.completed and _settled(client)
        recorder = telemetry.get()
        if recorder is not None:
            counters = recorder.metrics.snapshot()["counters"]
            assert f"{backend.name}.unmatched_replies" not in counters

    def test_a_follower_sync_records_what_a_leader_does(self, client):
        """A sync that finds the drive lock taken follows: it files a
        handle, and its reply is read by whoever holds the lock next.
        Traced, it records the same spans in the same tree as a sync that
        leads."""
        runtime, backend = client.runtime, client.backend
        got = []

        def followed():
            other = _HeldDriveLock(backend)
            waiter = threading.Thread(
                target=lambda: got.append(runtime.sync(1, f2f(apps.echo, 8))))
            try:
                waiter.start()
                assert _until(lambda: backend._pending_count() == 1)
            finally:
                other.release()
                waiter.join(WAIT)

        def recorded(offload):
            """``(name, parent's name)`` of each record ``offload`` adds,
            sorted."""
            before = recorder.recorded
            offload()
            assert recorder.recorded - before == FRAMED_RECORDS
            records = recorder.records()[-FRAMED_RECORDS:]
            names = {record.span_id: record.name for record in records}
            return sorted((record.name, names.get(record.parent_id))
                          for record in records)

        recorder = telemetry.get()
        if recorder is None:
            followed()
        else:
            led = recorded(lambda: got.append(runtime.sync(1, f2f(apps.echo, 7))))
            assert recorded(followed) == led
        assert got[-1] == 8 and _settled(client)

    def test_test_makes_progress_without_blocking(self, client):
        held, arrived = _hold_replies(client)
        future = client.runtime.async_(1, f2f(apps.add, 1, 2))
        assert arrived.acquire(timeout=WAIT)
        assert future.test() is False  # returns: the reply is not coming
        send, op, corr, parts = held.pop()
        send(op, corr, *parts)
        assert _until(future.test)  # no thread ever blocked in drive
        assert future.get() == 3 and _settled(client)

    def test_a_full_window_is_driven_by_whoever_waits_for_a_slot(self, client):
        gate = threading.Event()
        _HOOKS["gate"] = lambda value: gate.wait(WAIT) and value
        _HOOKS["gates"] = [gate]
        client.runtime.window.set_limit(1)
        first = client.runtime.async_(1, f2f(dispatch_hook, "gate", "first"))
        posted = []
        poster = threading.Thread(target=lambda: posted.append(
            client.runtime.async_(1, f2f(apps.add, 1, 2))))
        poster.start()  # blocks in acquire: the window is full ...
        assert _until(lambda: client.runtime.window.queued == 1)
        gate.set()  # ... and only it can read the reply that frees the slot
        poster.join(WAIT)
        assert not poster.is_alive() and first._handle.completed
        assert posted[0].get(timeout=WAIT) == 3 and first.get() == "first"

    def test_gather_of_awaited_futures_with_no_blocking_caller(self, client):
        backend = client.backend
        gate = threading.Event()
        _HOOKS["gate"] = lambda value: gate.wait(WAIT) and value
        _HOOKS["gates"] = [gate]

        async def main():
            gathered = asyncio.gather(*(
                client.runtime.async_(1, f2f(dispatch_hook, "gate", i + 1))
                for i in range(64)))
            await asyncio.sleep(0)  # every task polled once, then suspended
            assert _watching(backend) == 1  # one poller for 64 awaiters
            gate.set()  # from here on only the loop reads replies
            return await gathered

        assert asyncio.run(main()) == [i + 1 for i in range(64)]
        assert backend.loop_polls > 0
        # Counted by its awaiters: nothing polls an idle client.
        assert _watching(backend) == 0
        assert _settled(client)


class TestAwaitingLoop:
    """The loop that awaits a reply reads it, beside every other reader."""

    def test_an_awaiter_and_a_blocking_get_from_two_threads(self, client):
        held, _arrived = _hold_replies(client)
        runtime, backend = client.runtime, client.backend
        awaited = runtime.async_(1, f2f(apps.echo, "awaited"))
        blocking = runtime.async_(1, f2f(apps.echo, "blocking"))
        got = []
        getter = threading.Thread(
            target=lambda: got.append(blocking.get(timeout=WAIT)))

        def release(future):
            (reply,) = [reply for reply in held if reply[2] == future]
            send, op, corr, parts = reply
            send(op, corr, *parts)

        ids = [future._handle.correlation_id for future in (awaited, blocking)]

        async def main():
            task = asyncio.ensure_future(awaited)
            assert await _eventually(lambda: _watching(backend) == 1)
            getter.start()
            assert await _eventually(lambda: _led(backend))
            assert await _eventually(lambda: len(held) == 2)
            release(ids[0])  # read by the getter or the loop
            value = await asyncio.wait_for(task, WAIT)
            release(ids[1])
            return value

        assert asyncio.run(main()) == "awaited"
        getter.join(WAIT)
        assert got == ["blocking"] and _settled(client)
        assert _watching(backend) == 0

    def test_a_reply_received_behind_a_sync_reply_wakes_the_awaiter(self, client):
        """The invoke reply arrives behind a PING reply, in one segment,
        while the awaiting loop's own thread is in the ping. The ping
        reads both and completes the awaited one on its way out: after
        that ``recv`` the socket polls readable no more, so the loop
        watching it would never read that reply."""
        held, _arrived = _hold_replies(client)
        runtime, backend = client.runtime, client.backend
        conn = getattr(client.server, "_conn", None)

        def release_both():
            _until(lambda: len(held) == 2)
            held.sort(key=lambda reply: reply[1] != OP_PING | OP_REPLY_BIT)
            frames = b""
            for send, op, corr, parts in held:
                if conn is None:  # a ring publishes frame by frame
                    send(op, corr, *parts)
                else:
                    frames += _PREFIX.pack(_FRAME_META + sum(map(len, parts)), op, corr)
                    frames += b"".join(parts)
            if conn is not None:
                conn.sendall(frames)

        async def main():
            task = asyncio.ensure_future(runtime.async_(1, f2f(apps.add, 1, 2)))
            assert await _eventually(lambda: _watching(backend) == 1)
            releaser = threading.Thread(target=release_both)
            releaser.start()
            # Blocks the loop: no readiness of the socket reaches it meanwhile.
            backend._roundtrip(OP_PING, timeout=WAIT)
            releaser.join(WAIT)
            return await asyncio.wait_for(task, WAIT)

        assert asyncio.run(main()) == 3
        assert _watching(backend) == 0 and _settled(client)

    def test_two_loops_in_two_threads_await_one_backend(self, client):
        gate = threading.Event()
        _HOOKS["gate"] = lambda value: gate.wait(WAIT) and value
        _HOOKS["gates"] = [gate]
        runtime, backend = client.runtime, client.backend
        got = {}

        def awaiting(name):
            async def main():
                return await asyncio.wait_for(asyncio.gather(*(
                    runtime.async_(1, f2f(dispatch_hook, "gate", f"{name}{i}"))
                    for i in range(8))), WAIT)

            got[name] = asyncio.run(main())

        threads = [threading.Thread(target=awaiting, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        assert _until(lambda: _watching(backend) == 2)  # a poller per loop
        gate.set()
        for thread in threads:
            thread.join(WAIT)
        assert got == {name: [f"{name}{i}" for i in range(8)] for name in "ab"}
        assert _watching(backend) == 0 and _settled(client)

    def test_shutdown_while_a_loop_watches(self, client, caplog):
        def swallow_invoke_replies(send, op, corr, parts):
            if op != OP_INVOKE | OP_REPLY_BIT:
                send(op, corr, *parts)

        _rewrite_replies(client, swallow_invoke_replies)
        runtime, backend = client.runtime, client.backend

        async def main():
            task = asyncio.ensure_future(runtime.async_(1, f2f(apps.add, 1, 2)))
            assert await _eventually(lambda: _watching(backend) == 1)
            await asyncio.to_thread(runtime.shutdown)
            # Failed by the shutdown, or by the loop that read the EOF
            # which followed the SHUTDOWN reply first: either is the truth.
            with pytest.raises(BackendError):
                await asyncio.wait_for(task, WAIT)

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            asyncio.run(main())  # closes the loop
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert _watching(backend) == 0


def _forked(transport):
    if transport == "tcp":
        process, address = spawn_local_server()
        return process, TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5))
    process, segment = spawn_shm_server()
    return process, ShmBackend(
        segment, alive_fn=process.is_alive,
        on_shutdown=lambda: process.join(timeout=5))


#: What a waiter is told when the target is SIGKILLed under it.
DEATH_TEXT = {
    "tcp": "connection closed by peer; 1 pending operation can no longer "
           "be matched",
    "shm": "shm target process died",
}


@pytest.fixture(params=["shm", "tcp"])
def forked(request, tmp_path):
    """``(process, runtime, peer_deaths)`` over a forked target, the
    flight recorder armed at a directory of this test's own."""
    flight = flightrecorder.get()
    saved = flight.crash_dir, flight.debounce
    flightrecorder.configure(tmp_path, install_signal=False)
    process, backend = _forked(request.param)
    runtime = Runtime(backend)

    def peer_deaths():
        return [bundle for bundle in flightrecorder.find_bundles(tmp_path)
                if "peer_death" in bundle.name]

    try:
        yield process, runtime, peer_deaths
    finally:
        runtime.shutdown()
        flight.crash_dir, flight.debounce = saved
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()


class TestTargetKilled:
    def test_under_a_blocked_waiter_it_fails_at_once(self, forked):
        process, runtime, peer_deaths = forked
        backend = runtime.backend
        future = runtime.async_(1, f2f(apps.sleep_then, 30.0, 0))
        errors = []

        def blocked():
            try:
                future.get(timeout=WAIT)
            except BackendError as exc:  # a timeout would not be one
                errors.append(str(exc))

        waiter = threading.Thread(target=blocked)
        waiter.start()
        assert _until(lambda: _led(backend))
        os.kill(process.pid, signal.SIGKILL)
        waiter.join(WAIT)
        assert not waiter.is_alive()
        assert errors == [DEATH_TEXT[backend.name]]
        runtime.shutdown()
        assert len(peer_deaths()) == 1

    def test_under_an_awaiter_it_fails_at_once(self, forked):
        process, runtime, peer_deaths = forked
        backend = runtime.backend

        async def main():
            task = asyncio.ensure_future(
                runtime.async_(1, f2f(apps.sleep_then, 30.0, 0)))
            assert await _eventually(lambda: _watching(backend) == 1)
            os.kill(process.pid, signal.SIGKILL)
            with pytest.raises(BackendError) as failed:
                await asyncio.wait_for(task, WAIT)  # a timeout is no BackendError
            return str(failed.value)

        assert asyncio.run(main()) == DEATH_TEXT[backend.name]
        runtime.shutdown()
        assert len(peer_deaths()) == 1

    @pytest.mark.parametrize("how", ["get", "test", "post"])
    def test_under_nobody_the_next_to_look_reports_it(self, forked, how):
        process, runtime, peer_deaths = forked
        backend = runtime.backend
        future = runtime.async_(1, f2f(apps.sleep_then, 30.0, 0))
        os.kill(process.pid, signal.SIGKILL)
        process.join(WAIT)
        # Nobody reads, so nobody knows: no thread watches the transport.
        assert backend._alive and peer_deaths() == []
        if how == "test":
            assert _until(future.test)
        elif how == "post":
            with pytest.raises(BackendError):
                for _ in range(3):  # a dead socket takes the first frame
                    runtime.sync(1, f2f(apps.add, 1, 2), timeout=WAIT)
        with pytest.raises(BackendError):
            future.get(timeout=WAIT)
        assert not backend._alive and runtime.window.in_flight == 0
        runtime.shutdown()
        assert len(peer_deaths()) == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
class TestNothingLeaks:
    """ROADMAP aim 3: finalize -> init cycles leak nothing, on every way
    out of a transport."""

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_init_finalize_cycles(self, transport):
        def cycle():
            offload_api.init(transport)
            try:
                for i in range(50):
                    assert offload_api.sync(1, f2f(apps.echo, i)) == i

                async def awaited():
                    return await offload_api.async_(
                        1, f2f(apps.sleep_then, 0.01, "late"))

                assert asyncio.run(awaited()) == "late"
            finally:
                offload_api.finalize()

        cycle()  # what lives as long as the process (shm's resource tracker)
        before = resources(baseline=True)
        for _ in range(5):
            cycle()
        assert resources() == before

    def test_another_process_segment_is_not_ours(self):
        """The leak rows see this process's segments only: one named by
        another pid (a second suite's) is ignored, one of ours is not."""
        before = resources(baseline=True)["/dev/shm"]
        theirs = ShmSegment.create(4096, name=segment_prefix(os.getppid()) + "x")
        try:
            assert theirs.name.startswith(f"repro-{os.getppid()}-")
            assert resources()["/dev/shm"] == before
            ours = ShmSegment.create(4096)
            try:
                assert ours.name.startswith(f"repro-{os.getpid()}-")
                assert resources()["/dev/shm"] == sorted(before + [ours.name])
            finally:
                ours.close()
                ours.unlink()
        finally:
            theirs.close()
            theirs.unlink()
        assert resources()["/dev/shm"] == before

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_target_death_found_by_the_armed_backstop(self, transport):
        """The peer's death found inside an awaiting loop's poll, the
        only reader: EOF on the watched socket (tcp), the pid probe of a
        lap (shm). The loop's thread releases the transport."""
        before = resources(baseline=True)
        process, backend = _forked(transport)
        runtime = Runtime(backend)
        try:
            async def main():
                task = asyncio.ensure_future(
                    runtime.async_(1, f2f(apps.sleep_then, 30.0, 0)))
                assert await _eventually(lambda: _watching(backend) == 1)
                os.kill(process.pid, signal.SIGKILL)
                with pytest.raises(BackendError):
                    await asyncio.wait_for(task, WAIT)

            asyncio.run(main())
            assert not backend._alive and _watching(backend) == 0
        finally:
            runtime.shutdown()
            process.join(WAIT)
            process.close()
        assert resources() == before

    def test_failed_handshake(self):
        before = resources(baseline=True)
        process, address = spawn_local_server()
        try:
            catalog = Catalog()
            catalog.register(lambda: None, name="only::one")
            with pytest.raises(BackendError, match="catalogs differ"):
                TcpBackend(address, catalog=catalog)
        finally:
            process.terminate()
            process.join(WAIT)
            process.close()
        assert resources() == before
