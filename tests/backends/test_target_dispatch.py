"""The target dispatch loop and the tcp frame parser.

Every server here runs *in this process*, on a thread, so the tests can
gate kernels with ``threading`` primitives and observe which thread did
what. No assertion reads a clock: waits carry a 10 s timeout only so a
regression fails instead of hanging.
"""

import contextlib
import functools
import os
import socket
import struct
import sys
import threading

import numpy as np
import pytest

from repro.backends._server import (
    _PREFIX,
    _RECV_CHUNK,
    _U64,
    OP_ALLOC,
    OP_FREE,
    OP_INVOKE,
    OP_READ,
    OP_REPLY_BIT,
    OP_SHUTDOWN,
    OP_WRITE,
    FrameParser,
    _eof_error,
)
from repro.backends.base import InvokeHandle
from repro.backends.shm import (
    STATE_STOPPED,
    ShmBackend,
    ShmSegment,
    ShmTargetServer,
    _DATA_OFFSET,
    _OFF_H2T_TAIL,
)
from repro.backends.tcp import FRAME_LIMIT, TcpBackend, TcpTargetServer
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham import f2f, offloadable
from repro.ham.execution import sized_invoke_parts, unpack_result
from repro.offload import Runtime
from repro.telemetry import flightrecorder

from tests.backends.wire import frame
from tests.leaks import resources

WAIT = 10.0

#: Test-installed callables the kernel below runs inside the target.
_HOOKS = {}


@offloadable
def dispatch_hook(name, arg):
    return _HOOKS[name](arg)


def _probed(server_class):
    """``server_class`` recording what the loop does, and on which thread."""

    class Probe(server_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.invoke_readers = []
            self.inline_ops = []
            self.replies = []
            self.saw_shutdown = threading.Event()
            #: ``(op, corr)`` of the frames each write put on the pipe.
            self.writes = []
            transmit, publish, take = self._transmit, self._publish, self._take

            def transmitted(parts, nbytes):
                self.writes.append(_frames_in(parts))
                transmit(parts, nbytes)

            def published(op, corr, *parts):
                self.writes.append([(op, corr)])
                publish(op, corr, *parts)

            def taken():
                frame = take()
                if frame[0] == OP_INVOKE:
                    self.invoke_readers.append(threading.get_ident())
                elif frame[0] == OP_SHUTDOWN:
                    self.saw_shutdown.set()
                return frame

            self._transmit, self._take = transmitted, taken
            if server_class is ShmTargetServer:
                # A reply is published in place; tcp's passes through
                # ``_transmit``.
                self._publish = published

        def _handle_inline(self, op, corr, body):
            self.inline_ops.append(op)
            super()._handle_inline(op, corr, body)

        def _reply(self, op, corr, *parts):
            self.replies.append(op)
            super()._reply(op, corr, *parts)

    return Probe


def _frames_in(parts):
    """``(op, corr)`` of each frame in one write's parts, which may cut
    frames anywhere; bodies are skipped, not copied."""
    frames, prefix, skip = [], b"", 0
    for part in parts:
        view = memoryview(part).cast("B")
        while len(view):
            if skip:
                taken = min(skip, len(view))
                skip -= taken
            else:
                taken = _PREFIX.size - len(prefix)
                prefix += bytes(view[:taken])
                if len(prefix) == _PREFIX.size:
                    length, op, corr = _PREFIX.unpack(prefix)
                    frames.append((op, corr))
                    prefix, skip = b"", length - 9
            view = view[taken:]
    return frames


class Target:
    """One in-process server thread plus a connected runtime."""

    def __init__(self, transport):
        if transport == "tcp":
            self.server = _probed(TcpTargetServer)()
        else:
            self.segment = ShmSegment.create()
            self.segment.client_pid = os.getpid()
            self.server = _probed(ShmTargetServer)(self.segment)
        #: Every thread alive before the server's own started.
        self.threads_before = set(threading.enumerate())
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()

    def connect(self):
        join = functools.partial(self.thread.join, WAIT)
        if isinstance(self.server, TcpTargetServer):
            self.backend = TcpBackend(self.server.address, on_shutdown=join)
        else:
            self.backend = ShmBackend(self.segment, on_shutdown=join)
        self.runtime = Runtime(self.backend)


@pytest.fixture(params=["shm", "tcp"])
def target(request):
    _HOOKS.clear()
    target = Target(request.param)
    target.connect()
    yield target
    for gate in _HOOKS.get("gates", ()):
        gate.set()
    target.runtime.shutdown()
    target.thread.join(WAIT)
    assert not target.thread.is_alive()


def _park_one(target):
    """Post a kernel that waits for its gate; returns ``(entered, gate,
    future)`` (``entered``: the loop is inside it)."""
    entered, gate = threading.Event(), threading.Event()
    _HOOKS["gates"] = [gate]
    _HOOKS["park"] = lambda _arg: entered.set() or gate.wait(WAIT)
    return entered, gate, target.runtime.async_(1, f2f(dispatch_hook, "park", None))


def _mark_behind(target, labels):
    """Post invokes that append their label; returns (order, futures)."""
    order = []
    _HOOKS["mark"] = lambda label: order.append(label) or label
    return order, [
        target.runtime.async_(1, f2f(dispatch_hook, "mark", label))
        for label in labels
    ]


def out_of_request_order_completion(transport):
    """Replies are matched by correlation id, not by request order: hold
    the in-process target's replies to two offloads, send the second's
    first, and it completes its own offload only."""
    _HOOKS.clear()
    _HOOKS["echo"] = lambda arg: arg
    target = Target(transport)
    target.connect()
    server, held, arrived = target.server, [], threading.Semaphore(0)
    send = server._reply
    server._reply = lambda *reply: held.append(reply) or arrived.release()
    try:
        first, second = (target.runtime.async_(1, f2f(dispatch_hook, "echo", label))
                         for label in ("first", "second"))
        assert not first.test()  # a drive: tcp's coalescer sends what it holds
        assert arrived.acquire(timeout=WAIT) and arrived.acquire(timeout=WAIT)
        del server._reply  # the target waits idle: this thread sends
        send(*held[1])
        assert second.get(timeout=WAIT) == "second"
        assert not first.test()
        send(*held[0])
        assert first.get(timeout=WAIT) == "first"
    finally:
        server.__dict__.pop("_reply", None)
        target.runtime.shutdown()
        target.thread.join(WAIT)
    assert not target.thread.is_alive()


class TestDispatchLoop:
    def test_invoke_executes_on_the_thread_that_read_it(self, target):
        _HOOKS["ident"] = lambda _arg: threading.get_ident()
        executed_on = [
            target.runtime.sync(1, f2f(dispatch_hook, "ident", None))
            for _ in range(20)
        ]
        assert executed_on == target.server.invoke_readers
        assert threading.get_ident() not in executed_on

    def test_an_echo_behind_a_parked_kernel_is_answered_after_it(self, target):
        """One thread takes, executes and publishes: what arrives behind
        a running kernel waits for it, and is answered after it, in
        request order; the server starts no thread of its own."""
        entered, gate, parked = _park_one(target)
        assert entered.wait(WAIT)
        order, (late,) = _mark_behind(target, ["echo"])
        ids = [future._handle.correlation_id for future in (parked, late)]
        with pytest.raises(OffloadTimeoutError):
            late.get(timeout=0.05)  # nobody executes it meanwhile
        assert order == []
        assert set(threading.enumerate()) - target.threads_before == {target.thread}
        gate.set()
        assert late.get(timeout=WAIT) == "echo" and parked.get(timeout=WAIT) is True
        replied = [corr for write in target.server.writes for _op, corr in write]
        assert [corr for corr in replied if corr in ids] == ids

    def test_shutdown_acknowledged_after_every_reply(self, target):
        entered, gate, parked = _park_one(target)
        assert entered.wait(WAIT)
        _order, late = _mark_behind(target, "ab")
        backend = target.backend
        send, sent = backend._send, threading.Event()

        def sending(op, corr, *parts):
            send(op, corr, *parts)
            if op == OP_SHUTDOWN:
                sent.set()

        backend._send = sending
        stopper = threading.Thread(target=target.runtime.shutdown)
        stopper.start()
        # SHUTDOWN is on the pipe, behind the parked kernel...
        assert sent.wait(WAIT)
        assert not target.server.saw_shutdown.is_set()
        assert OP_SHUTDOWN | OP_REPLY_BIT not in target.server.replies
        gate.set()  # ...which only now is taken.
        stopper.join(WAIT)
        assert not stopper.is_alive()
        replies = target.server.replies
        assert replies[-1] == OP_SHUTDOWN | OP_REPLY_BIT
        assert replies.count(OP_INVOKE | OP_REPLY_BIT) == 3
        assert [future.get(timeout=WAIT) for future in late] == ["a", "b"]
        assert parked.get(timeout=WAIT) is True

    def test_no_invoke_lost_or_run_twice_under_thread_churn(self, target):
        count = 3000
        seen = []
        _HOOKS["mark"] = lambda i: seen.append(i) or i
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the server's thread and the host's
        try:
            futures = [
                target.runtime.async_(1, f2f(dispatch_hook, "mark", i))
                for i in range(count)
            ]
            assert [f.get(timeout=WAIT) for f in futures] == list(range(count))
        finally:
            sys.setswitchinterval(interval)
        target.runtime.shutdown()
        target.thread.join(WAIT)
        server = target.server
        assert sorted(seen) == list(range(count))
        assert server.messages_executed == count
        assert server.replies.count(OP_INVOKE | OP_REPLY_BIT) == count

    def test_inline_ops_keep_their_order_between_invokes(self, target):
        runtime = target.runtime
        _HOOKS["ident"] = lambda _arg: threading.get_ident()
        inflight = []

        def poke():  # an invoke ahead of each op: the leader changes
            inflight.append(runtime.async_(1, f2f(dispatch_hook, "ident", None)))

        data = np.arange(16, dtype=np.float64)
        back = np.zeros_like(data)
        before = len(target.server.inline_ops)
        poke()
        ptr = runtime.allocate(1, 16)
        poke()
        runtime.put(data, ptr).get(timeout=WAIT)
        poke()
        runtime.get(ptr, back).get(timeout=WAIT)
        poke()
        runtime.free(ptr)
        assert np.array_equal(back, data)
        assert all(future.get(timeout=WAIT) for future in inflight)
        memory_ops = [
            op for op in target.server.inline_ops[before:]
            if op in (OP_ALLOC, OP_WRITE, OP_READ, OP_FREE)
        ]
        assert memory_ops == [OP_ALLOC, OP_WRITE, OP_READ, OP_FREE]


@contextlib.contextmanager
def _served(transport):
    """A connected in-process target; whatever it used is gone once it is."""
    _HOOKS.clear()
    _HOOKS["echo"] = lambda arg: arg
    before = resources(baseline=True)
    target = Target(transport)
    target.connect()
    try:
        yield target
    finally:
        for gate in _HOOKS.get("gates", ()):
            gate.set()
        target.runtime.shutdown()
        target.thread.join(WAIT)
    assert not target.thread.is_alive()
    assert resources() == before


def _echo(backend, value):
    """An ``OP_INVOKE`` request of ``dispatch_hook("echo", value)``."""
    parts, _nbytes = sized_invoke_parts(
        backend.host_image, f2f(dispatch_hook, "echo", value), 0)
    return (OP_INVOKE, *parts)


def _framed(backend, requests):
    """File a handle for each ``(op, *body)`` request; returns the
    handles and the requests framed back to back."""
    handles, parts = [], []
    for op, *body in requests:
        handle = InvokeHandle(backend, f"op {op:#x}")
        backend._expect(
            op, handle, lambda op, corr, *body: parts.extend(frame(op, corr, *body)),
            body,
        )
        handles.append(handle)
    return handles, parts


def _write_raw(backend, data):
    """Put the frames ``data`` on the pipe in one write."""
    if isinstance(backend, ShmBackend):
        with backend._send_lock:
            backend._h2t.write([data], len(data))
    else:
        backend._transmit([data], len(data))


def _write_at_once(backend, requests):
    """Put ``requests`` on the pipe in one write; returns their handles."""
    handles, parts = _framed(backend, requests)
    _write_raw(backend, b"".join(parts))
    return handles


def _wait_all(backend, handles):
    for handle in handles:
        backend.drive(handle, blocking=True, timeout=WAIT)
        assert handle._error is None, handle._error


def _reply_writes(server, handles):
    """The writes that carried a reply to one of ``handles``, and every
    correlation id on the wire in write order."""
    ids = {handle.correlation_id for handle in handles}
    writes = [write for write in server.writes if ids & {corr for _op, corr in write}]
    return writes, [corr for write in server.writes for _op, corr in write]


@pytest.mark.parametrize("transport", ["shm", "tcp"])
class TestBurstReplies:
    """The reader holds the replies of a burst until it has parsed the
    burst, and sends them in one write."""

    def test_a_burst_of_16_echoes_is_answered_in_at_most_two_writes(
            self, transport):
        with _served(transport) as target:
            backend = target.backend
            handles = _write_at_once(backend, [_echo(backend, i) for i in range(16)])
            _wait_all(backend, handles)
            assert [unpack_result(h._reply)[1] for h in handles] == list(range(16))
            writes, _order = _reply_writes(target.server, handles)
            assert 1 <= len(writes) <= 2
            assert [corr for write in writes for _op, corr in write] == [
                handle.correlation_id for handle in handles
            ]

    def test_a_burst_of_more_replies_than_a_write_takes_parts(
            self, transport):
        """A scatter-gather write takes at most ``IOV_MAX`` (1024)
        parts; 1,100 held replies still leave whole."""
        with _served(transport) as target:
            backend = target.backend
            handles = _write_at_once(backend, [_echo(backend, i) for i in range(1100)])
            _wait_all(backend, handles)
            assert [unpack_result(h._reply)[1] for h in handles] == list(range(1100))
            writes, _order = _reply_writes(target.server, handles)
            assert len(writes) < 1100 // 16

    def test_an_alloc_inside_a_burst_is_answered_in_arrival_order(
            self, transport):
        with _served(transport) as target:
            backend = target.backend
            requests = [_echo(backend, i) for i in range(4)]
            requests += [(OP_ALLOC, _U64.pack(64))]
            requests += [_echo(backend, i) for i in range(4, 8)]
            handles = _write_at_once(backend, requests)
            _wait_all(backend, handles)
            ids = [handle.correlation_id for handle in handles]
            _writes, order = _reply_writes(target.server, handles)
            assert [corr for corr in order if corr in ids] == ids
            backend.free_buffer(1, _U64.unpack(handles[4]._reply)[0])

    def test_the_shutdown_ack_is_still_the_last_frame(self, transport):
        with _served(transport) as target:
            backend, server = target.backend, target.server
            send = backend._send
            echoes = []

            def behind_a_burst(op, corr, *parts):
                if op != OP_SHUTDOWN:
                    send(op, corr, *parts)
                    return
                handles, ahead = _framed(backend, [_echo(backend, i) for i in range(8)])
                echoes.extend(handles)
                _write_raw(backend, b"".join([*ahead, *frame(op, corr, *parts)]))

            backend._send = behind_a_burst
            target.runtime.shutdown()
            target.thread.join(WAIT)
            assert [unpack_result(h._reply)[1] for h in echoes] == list(range(8))
            frames = [frame for write in server.writes for frame in write]
            assert frames[-1][0] == OP_SHUTDOWN | OP_REPLY_BIT
            assert {corr for _op, corr in frames[-9:-1]} == {
                handle.correlation_id for handle in echoes
            }


class TestReaderKeepsReading:
    """The thread that serves reads, executes and replies; nothing else
    serves."""

    def test_fast_kernels_never_change_threads(self, target):
        _HOOKS["echo"] = lambda arg: arg
        for i in range(200):
            assert target.runtime.sync(1, f2f(dispatch_hook, "echo", i)) == i
        assert target.server.invoke_readers == [target.thread.ident] * 200

    def test_refused_message_is_answered_and_not_counted(self, target):
        _HOOKS["echo"] = lambda arg: arg
        assert target.runtime.sync(1, f2f(dispatch_hook, "echo", 1)) == 1
        with pytest.raises(RemoteExecutionError, match="truncated"):
            target.backend._roundtrip(OP_INVOKE, b"no HAM message", timeout=WAIT)
        assert target.runtime.sync(1, f2f(dispatch_hook, "echo", 2)) == 2
        state = target.backend.introspect_target(timeout=WAIT)
        assert state["messages_executed"] == 2


class TestStopReason:
    """A target that stops without SHUTDOWN says why (stderr + flight ring)."""

    def _stopped_with(self, capfd, thread, fragment):
        thread.join(WAIT)
        assert not thread.is_alive()
        assert fragment in capfd.readouterr().err
        _, name, _, attrs = flightrecorder.get().records()[-1]
        assert name == "target.stopped" and fragment in attrs["reason"]

    @pytest.mark.parametrize("sent, fragment", [
        (b"", "connection closed by peer"),
        (struct.pack("<I", 3), "short frame: length 3"),
        (struct.pack("<IB", 20, OP_INVOKE), "mid-frame: 5 byte(s)"),
    ])
    def test_tcp_reason(self, capfd, sent, fragment):
        target = Target("tcp")
        with socket.create_connection(target.server.address) as sock:
            sock.sendall(sent)
        self._stopped_with(capfd, target.thread, fragment)

    def test_shm_corrupt_ring_reason(self, capfd):
        target = Target("shm")
        try:
            # Publish 16 zero bytes: a frame of length 0.
            target.segment.cursors[_OFF_H2T_TAIL // 8] = 16
            self._stopped_with(capfd, target.thread, "corrupt frame")
            assert target.segment.state == STATE_STOPPED
        finally:
            target.segment.close()
            target.segment.unlink()

    def test_shm_length_over_the_ring_capacity_reason(self, capfd):
        target = Target("shm")
        segment = target.segment
        try:
            # Publish a prefix whose length is more than the ring holds.
            _PREFIX.pack_into(segment.buf, _DATA_OFFSET, segment.capacity, OP_INVOKE, 1)
            segment.cursors[_OFF_H2T_TAIL // 8] = _PREFIX.size
            self._stopped_with(
                capfd, target.thread, f"long frame: length {segment.capacity}")
            assert segment.state == STATE_STOPPED
        finally:
            segment.close()
            segment.unlink()


class _Chunks:
    """A socket that delivers a fixed list of chunks, then EOF."""

    def __init__(self, chunks):
        self.chunks = [bytes(chunk) for chunk in chunks]
        self.recv_into_calls = 0

    def recv(self, limit):
        if not self.chunks:
            return b""
        head, self.chunks[0] = self.chunks[0][:limit], self.chunks[0][limit:]
        if not self.chunks[0]:
            self.chunks.pop(0)
        return head

    def recv_into(self, view):
        self.recv_into_calls += 1
        data = self.recv(len(view))
        view[: len(data)] = data
        return len(data)


def _frame(op, corr, body=b""):
    return struct.pack("<IBQ", 9 + len(body), op, corr) + body


def _drain(parser):
    """Every frame up to EOF, bodies copied out."""
    frames = []
    while True:
        frame = parser.next_frame()
        if frame is not None:
            frames.append((frame[0], frame[1], bytes(frame[2])))
        elif not parser.fill():
            return frames


class TestFrameParser:
    FRAMES = [(1, 7, b"abc"), (0x84, 2**63, b""), (5, 9, bytes(range(200)))]

    def test_byte_at_a_time(self):
        stream = b"".join(_frame(*frame) for frame in self.FRAMES)
        parser = FrameParser(_Chunks(stream[i:i + 1] for i in range(len(stream))), FRAME_LIMIT)
        assert _drain(parser) == self.FRAMES
        assert parser.buffered == 0

    def test_many_frames_in_one_chunk(self):
        frames = self.FRAMES * 50
        sock = _Chunks([b"".join(_frame(*frame) for frame in frames)])
        parser = FrameParser(sock, FRAME_LIMIT)
        assert parser.fill() and not sock.chunks  # one recv carried them all
        assert [parser.next_frame()[1] for _ in frames] == [f[1] for f in frames]
        assert parser.next_frame() is None

    def test_long_frame_lands_in_its_own_buffer(self):
        body = os.urandom(_RECV_CHUNK * 3 + 17)
        stream = _frame(1, 1, b"before") + _frame(4, 2, body) + _frame(1, 3, b"after")
        sock = _Chunks([stream[:1000], stream[1000:5000], stream[5000:]])
        parser = FrameParser(sock, FRAME_LIMIT)
        assert _drain(parser) == [(1, 1, b"before"), (4, 2, body), (1, 3, b"after")]
        assert sock.recv_into_calls  # the remainder skipped the chunk buffer

    def test_short_length_is_a_typed_error(self):
        parser = FrameParser(_Chunks([_frame(1, 1) + struct.pack("<I", 8)]), FRAME_LIMIT)
        assert parser.fill()
        assert parser.next_frame()[:2] == (1, 1)
        with pytest.raises(BackendError, match="short frame: length 8"):
            parser.next_frame()

    def test_a_length_over_the_limit_is_refused_before_a_buffer_is_made(self):
        stream = struct.pack("<IBQ", 0xFFFFFFFF, 1, 1) + bytes(100)
        parser = FrameParser(_Chunks([stream]), FRAME_LIMIT)
        assert parser.fill()
        with pytest.raises(BackendError, match="long frame: length 4294967295"):
            parser.next_frame()
        assert parser._big is None

    @pytest.mark.parametrize("size", [0, 3, 11, 70_000 + 4])
    def test_eof_mid_frame_keeps_its_byte_count(self, size):
        stream = _frame(1, 1, bytes(100_000))[:size]
        parser = FrameParser(_Chunks([stream] if size else []), FRAME_LIMIT)
        assert _drain(parser) == []
        message = str(_eof_error(parser, pending=2))
        if size:
            assert f"mid-frame: {size} byte(s)" in message
        else:
            assert "closed by peer" in message
        assert "2 pending operations" in message
