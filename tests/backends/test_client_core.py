"""The client core (``FramedClient``): reply matching and peer loss.

One ``_dispatch_reply`` and one ``_fail_pending`` serve both transports,
so every case runs against an in-process shm and tcp server (the harness
of ``test_target_dispatch``) whose replies the test rewrites on their way
out. ``traced`` decides which roundtrip shm takes: with a recorder every
sync op goes through the shared table, without one through the leader
fast path — both must report the same errors. No assertion reads a
clock; waits carry a 10 s timeout only so a regression fails instead of
hanging.
"""

import multiprocessing
import socket
import threading

import pytest

from repro.backends.tcp import OP_ALLOC, OP_INVOKE, OP_PING, OP_REPLY_BIT
from repro.errors import BackendError, RemoteExecutionError
from repro.ham import f2f
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.backends.test_target_dispatch import WAIT, Target


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
        with pytest.raises(BackendError, match="expected invoke reply, got op 0x87"):
            future.get(timeout=WAIT)
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
    """``stats()`` is a getter — its dict is what ``top``, the Scoreboard
    and crash bundles read — and a traced offload mirrors no transport
    depth onto a gauge either. (Other gauges may exist: the shared
    reactor stores its loop lag whenever a timer fires.)"""
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
