"""The target dispatch loop and the tcp frame parser.

Every server here runs *in this process*, on a thread, so the tests can
gate kernels with ``threading`` primitives and observe which thread did
what. No assertion reads a clock: waits carry a 10 s timeout only so a
regression fails instead of hanging, and whether an invocation "ran
long" is decided by the clock a test hands the server.
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

from repro.backends import _server
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
    _OFF_H2T_TAIL,
)
from repro.backends.tcp import FRAME_LIMIT, TcpBackend, TcpTargetServer
from repro.errors import BackendError, RemoteExecutionError
from repro.ham import f2f, offloadable
from repro.ham.execution import sized_invoke_parts, unpack_result
from repro.offload import Runtime
from repro.telemetry import flightrecorder

from tests.backends.wire import frame
from tests.leaks import resources

WAIT = 10.0
WORKERS = 3

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
            transmit = self._transmit

            def recorded(parts, nbytes):
                self.writes.append(_frames_in(parts))
                transmit(parts, nbytes)

            self._transmit = recorded

        def _next_frame(self):
            frame = super()._next_frame()
            if frame[0] == OP_INVOKE:
                self.invoke_readers.append(threading.get_ident())
            elif frame[0] == OP_SHUTDOWN:
                self.saw_shutdown.set()
            return frame

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

    def __init__(self, transport, workers=WORKERS):
        if transport == "tcp":
            self.server = _probed(TcpTargetServer)(workers=workers)
        else:
            self.segment = ShmSegment.create()
            self.segment.client_pid = os.getpid()
            self.server = _probed(ShmTargetServer)(self.segment, workers=workers)
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


def _park_all(target):
    """Occupy every worker: each kernel meets the others at one barrier
    (so they provably run at once), then waits for its own gate."""
    barrier = threading.Barrier(WORKERS)
    gates = [threading.Event() for _ in range(WORKERS)]
    _HOOKS["gates"] = gates

    def park(i):
        barrier.wait(WAIT)
        return gates[i].wait(WAIT)

    _HOOKS["park"] = park
    return gates, [
        target.runtime.async_(1, f2f(dispatch_hook, "park", i))
        for i in range(WORKERS)
    ]


def _mark_behind(target, labels):
    """Post invokes that append their label; returns (order, futures)."""
    order = []
    _HOOKS["mark"] = lambda label: order.append(label) or label
    return order, [
        target.runtime.async_(1, f2f(dispatch_hook, "mark", label))
        for label in labels
    ]


class TestDispatchLoop:
    def test_invoke_executes_on_the_thread_that_read_it(self, target):
        _HOOKS["ident"] = lambda _arg: threading.get_ident()
        executed_on = [
            target.runtime.sync(1, f2f(dispatch_hook, "ident", None))
            for _ in range(20)
        ]
        assert executed_on == target.server.invoke_readers
        assert threading.get_ident() not in executed_on

    def test_workers_run_concurrently_then_backlog_is_fifo(self, target):
        gates, parked = _park_all(target)
        order, late = _mark_behind(target, "ab")
        # The probe is read after the five invokes: by now all are booked.
        state = target.backend.introspect_target(timeout=WAIT)
        assert state["workers"] == {"pool_size": WORKERS, "active": WORKERS}
        assert state["pending_invokes"] == WORKERS + 2
        assert order == []
        gates[0].set()  # one executor finishes and drains the backlog
        assert [future.get(timeout=WAIT) for future in late] == ["a", "b"]
        assert order == ["a", "b"]
        for gate in gates:
            gate.set()
        assert [future.get(timeout=WAIT) for future in parked] == [True] * WORKERS

    def test_wedged_target_still_answers_introspect(self, target):
        gates, parked = _park_all(target)
        for _ in range(3):
            state = target.backend.introspect_target(timeout=WAIT)
            assert state["workers"]["active"] == WORKERS
        assert target.backend.ping(1) >= 0.0
        for gate in gates:
            gate.set()
        assert all(future.get(timeout=WAIT) for future in parked)

    def test_shutdown_acknowledged_after_every_reply(self, target):
        gates, parked = _park_all(target)
        _order, late = _mark_behind(target, "ab")
        stopper = threading.Thread(target=target.runtime.shutdown)
        stopper.start()
        # The leader has read SHUTDOWN and waits for the drain...
        assert target.server.saw_shutdown.wait(WAIT)
        assert OP_SHUTDOWN | OP_REPLY_BIT not in target.server.replies
        for gate in gates:  # ...which only now can finish.
            gate.set()
        stopper.join(WAIT)
        assert not stopper.is_alive()
        replies = target.server.replies
        assert replies[-1] == OP_SHUTDOWN | OP_REPLY_BIT
        assert replies.count(OP_INVOKE | OP_REPLY_BIT) == WORKERS + 2
        assert [future.get(timeout=WAIT) for future in late] == ["a", "b"]
        assert all(future.get(timeout=WAIT) for future in parked)

    def test_no_invoke_lost_or_run_twice_under_thread_churn(self, target):
        count = 3000
        seen = []
        _HOOKS["mark"] = lambda i: seen.append(i) or i
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # four server threads + host on <= 2 CPUs
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
        assert server._executing == 0 and not server._backlog
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
    """A connected in-process target on a clock that stands still (no
    invocation "runs long"); whatever it used is gone once it is."""
    _HOOKS.clear()
    _HOOKS["echo"] = lambda arg: arg
    before = resources(baseline=True)
    target = Target(transport)
    target.server.clock_ns = _Clock()
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


def _write_at_once(backend, requests):
    """Put ``requests`` on the pipe in one write; returns their handles."""
    handles, parts = _framed(backend, requests)
    burst = b"".join(parts)
    backend._transmit([burst], len(burst))
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
            self, transport, monkeypatch):
        # The standby's interval is real time: a box that stalls this
        # process inside one echo must not decide this test.
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 10 * WAIT)
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
            self, transport, monkeypatch):
        """A scatter-gather write takes at most ``IOV_MAX`` (1024)
        parts; 1,100 held replies still leave whole."""
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 10 * WAIT)
        with _served(transport) as target:
            backend = target.backend
            handles = _write_at_once(backend, [_echo(backend, i) for i in range(1100)])
            _wait_all(backend, handles)
            assert [unpack_result(h._reply)[1] for h in handles] == list(range(1100))
            writes, _order = _reply_writes(target.server, handles)
            assert len(writes) < 1100 // 16

    def test_an_alloc_inside_a_burst_is_answered_in_arrival_order(
            self, transport, monkeypatch):
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 10 * WAIT)
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

    def test_the_shutdown_ack_is_still_the_last_frame(self, transport, monkeypatch):
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 10 * WAIT)
        with _served(transport) as target:
            backend, server = target.backend, target.server
            transmit = backend._transmit
            echoes = []

            def behind_a_burst(parts, nbytes):
                if _frames_in(parts)[0][0] == OP_SHUTDOWN:
                    handles, ahead = _framed(backend, [_echo(backend, i) for i in range(8)])
                    echoes.extend(handles)
                    parts, nbytes = ahead + parts, nbytes + sum(map(len, ahead))
                transmit(parts, nbytes)

            backend._transmit = behind_a_burst
            target.runtime.shutdown()
            target.thread.join(WAIT)
            assert [unpack_result(h._reply)[1] for h in echoes] == list(range(8))
            frames = [frame for write in server.writes for frame in write]
            assert frames[-1][0] == OP_SHUTDOWN | OP_REPLY_BIT
            assert {corr for _op, corr in frames[-9:-1]} == {
                handle.correlation_id for handle in echoes
            }

    def test_an_echo_ahead_of_a_blocked_kernel_is_answered_meanwhile(
            self, transport):
        """The echo's reply is held while the reader goes on to the
        kernel; the standby takes the reading from the kernel, finds the
        burst parsed and sends what was held."""
        with _served(transport) as target:
            backend = target.backend
            entered, gate = threading.Event(), threading.Event()
            _HOOKS["gates"] = [gate]
            _HOOKS["park"] = lambda _arg: entered.set() or gate.wait(WAIT)
            parked = (OP_INVOKE, *sized_invoke_parts(
                backend.host_image, f2f(dispatch_hook, "park", None), 0)[0])
            echo, park = _write_at_once(backend, [_echo(backend, 7), parked])
            assert entered.wait(WAIT)
            backend.drive(echo, blocking=True, timeout=WAIT)
            assert unpack_result(echo._reply)[1] == 7
            assert not gate.is_set() and not park.completed
            gate.set()
            backend.drive(park, blocking=True, timeout=WAIT)
            assert unpack_result(park._reply)[1] is True


class _Clock:
    """The server's ``clock_ns``, in the test's hands: it stands still
    unless a kernel moves it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def run_long(self):
        self.now += 10 * _server.HANDOFF_PAYS_NS


def _dispatch(target):
    """What the loop says it did, asked over the wire."""
    return target.backend.introspect_target(timeout=WAIT)["dispatch"]


class TestReaderKeepsReading:
    """The rule (a long invocation makes the next one hand the reading
    on first) and the safety net (the standby takes it from a reader
    stuck in one invocation)."""

    @pytest.fixture
    def clock(self, target):
        target.server.clock_ns = clock = _Clock()
        _HOOKS["echo"] = lambda arg: arg
        _HOOKS["slow"] = lambda _arg: clock.run_long()
        return clock

    def test_fast_kernels_never_change_threads(self, target, clock, monkeypatch):
        # The standby's interval is real time; a box that stalls this
        # process for 5 ms inside one echo must not decide this test.
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 10 * WAIT)
        for i in range(200):
            assert target.runtime.sync(1, f2f(dispatch_hook, "echo", i)) == i
        readers = set(target.server.invoke_readers)
        assert len(target.server.invoke_readers) == 200 and len(readers) == 1
        dispatch = _dispatch(target)
        assert dispatch["handoffs"] == 0 and dispatch["promotions"] == 0
        names = {t.ident: t.name for t in threading.enumerate()}
        assert dispatch["reader"] == names[readers.pop()]

    def test_straggler_loses_the_reading_to_the_standby(self, target, clock):
        for i in range(20):
            assert target.runtime.sync(1, f2f(dispatch_hook, "echo", i)) == i
        entered, gate = threading.Event(), threading.Event()
        _HOOKS["gates"] = [gate]
        _HOOKS["park"] = lambda _arg: entered.set() or gate.wait(WAIT)
        parked = []
        poster = threading.Thread(target=lambda: parked.append(
            target.runtime.sync(1, f2f(dispatch_hook, "park", None))
        ))
        poster.start()
        assert entered.wait(WAIT)
        # The reader sits in the kernel: only a promotion answers these.
        assert target.backend.ping(1) >= 0.0
        state = target.backend.introspect_target(timeout=WAIT)
        assert target.runtime.sync(1, f2f(dispatch_hook, "echo", 7)) == 7
        assert not gate.is_set()
        assert state["workers"]["active"] == 1
        assert state["dispatch"]["promotions"] >= 1
        assert state["dispatch"]["handoffs"] == 0
        attrs = [
            record[3] for record in flightrecorder.get().records()
            if record[1] == "target.promoted"
        ][-1]
        assert attrs["functor"].endswith("dispatch_hook") and attrs["corr"] > 0
        assert attrs["reader"] != state["dispatch"]["reader"]
        gate.set()
        poster.join(WAIT)
        assert parked == [True]

    def test_after_a_long_invocation_kernels_overlap_by_handoff(
            self, target, clock):
        target.runtime.sync(1, f2f(dispatch_hook, "slow", None))
        before = _dispatch(target)
        # The barrier kernels run at once or not at all — and the reader
        # is never inside one, so no promotion can have overlapped them.
        gates, parked = _park_all(target)
        state = target.backend.introspect_target(timeout=WAIT)
        assert state["workers"]["active"] == WORKERS
        for gate in gates:
            gate.set()
        assert [future.get(timeout=WAIT) for future in parked] == [True] * WORKERS
        after = _dispatch(target)
        assert after["promotions"] == before["promotions"]
        assert after["handoffs"] >= before["handoffs"] + WORKERS

    def test_no_invoke_lost_while_the_reading_moves(
            self, target, clock, monkeypatch):
        # Every third kernel "runs long" and the standby looks every
        # 0.1 ms: hand-offs, promotions, parking and the backlog
        # interleave, on more threads than CPUs.
        monkeypatch.setattr(_server, "WATCH_INTERVAL", 1e-4)
        count = 2000
        seen = []

        def mark(i):
            seen.append(i)
            if i % 3 == 0:
                clock.run_long()
            return i

        _HOOKS["mark"] = mark
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            futures = [
                target.runtime.async_(1, f2f(dispatch_hook, "mark", i))
                for i in range(count)
            ]
            assert [f.get(timeout=WAIT) for f in futures] == list(range(count))
        finally:
            sys.setswitchinterval(interval)
        assert _dispatch(target)["handoffs"] > 0
        target.runtime.shutdown()
        target.thread.join(WAIT)
        server = target.server
        assert sorted(seen) == list(range(count))
        assert server.messages_executed == count
        assert server._executing == 0 and not server._backlog
        assert server.replies.count(OP_INVOKE | OP_REPLY_BIT) == count

    def test_refused_message_is_answered_and_not_counted(self, target, clock):
        assert target.runtime.sync(1, f2f(dispatch_hook, "echo", 1)) == 1
        with pytest.raises(RemoteExecutionError, match="truncated"):
            target.backend._roundtrip(OP_INVOKE, b"no HAM message", timeout=WAIT)
        assert target.runtime.sync(1, f2f(dispatch_hook, "echo", 2)) == 2
        state = target.backend.introspect_target(timeout=WAIT)
        assert state["messages_executed"] == 2
        assert state["workers"]["active"] == 0 == state["pending_invokes"]


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
