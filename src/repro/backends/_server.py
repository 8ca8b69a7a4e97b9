"""The target-side server shared by the shm and tcp transports.

Both transports speak the same frames (see :mod:`repro.backends.tcp`),
so everything behind the byte pipe is one class: the op table, the
inline memory/control ops, running an invocation, failure replies,
introspection — and the **leader/followers loop** that serves them.

The paper's VE loop polls the flag, runs the active-message handler
*itself* and stores the result back (Sec. IV-B). This is that loop for
``workers`` concurrent invocations: ``workers + 1`` threads share one
**poll token**. Its holder, the leader, reads frames; memory and control
operations run inline on it, strictly in arrival order. An ``OP_INVOKE``
is booked, the token released (promoting a waiting follower to leader)
and the invocation executed and answered on the reader's own stack: no
queue, no future, no hand-off of the message. With ``workers``
invocations executing, the leader keeps the token and parks further
invokes on a FIFO backlog that finishing executors drain before they
queue for the token again — the spare thread is why a target wedged in
its kernels still answers ``OP_INTROSPECT``.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any

from repro.backends._target_memory import HostedBuffers
from repro.errors import BackendError
from repro.ham.execution import execute_message
from repro.ham.message import peek_trace_flags
from repro.ham.registry import Catalog, ProcessImage
from repro.offload.buffer import BufferPtr
from repro.telemetry import context as trace_context
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.export import records_to_dicts

OP_INVOKE = 0x01
OP_ALLOC = 0x02
OP_FREE = 0x03
OP_WRITE = 0x04
OP_READ = 0x05
OP_SHUTDOWN = 0x06
OP_PING = 0x07
OP_TELEMETRY = 0x08
OP_CLOCK = 0x09
OP_INTROSPECT = 0x0A
OP_REPLY_BIT = 0x80
OP_FAILURE = 0xFF

_LEN = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: ``length | op | corr`` — the frame prefix (13 bytes).
_PREFIX = struct.Struct("<IBQ")
#: op byte + correlation id, counted inside the frame length.
_FRAME_META = 1 + _U64.size
#: Full overhead of one frame (length prefix + op + corr).
FRAME_OVERHEAD = _LEN.size + _FRAME_META

#: Default number of concurrent INVOKEs a target executes.
DEFAULT_SERVER_WORKERS = 4


def reset_forked_recorder() -> None:
    """First thing in a forked target: keep the recorder, drop its host side.

    The fork inherits the host recorder wholesale: its records (pulled
    back through ``OP_TELEMETRY`` they would land in the host ring
    twice), the forking thread's open spans, and the host-only sampling
    machinery — a tail pipeline here would stage unsampled spans that no
    completion ever settles (completions happen host-side), and SLO
    windows would double-count.
    """
    recorder = telemetry.get()
    if recorder is not None:
        recorder.reset_after_fork()


class FramedServer:
    """One client, ``workers`` concurrent invocations, over any frame pipe.

    A transport supplies ``_next_frame()`` — block for the next
    ``(op, corr, body)``, raise :class:`BackendError` when the client is
    gone or the stream corrupt; only the leader calls it — and
    ``_reply(op, corr, *parts)``, which every serving thread calls and
    the transport therefore serializes.
    """

    #: "tcp" / "shm": names the image, the threads and the reply span.
    transport = ""
    #: What ``_reply`` raises when nobody is left to reply to.
    _CLIENT_GONE: tuple[type[BaseException], ...] = ()

    def __init__(self, catalog: Catalog | None, workers: int) -> None:
        if workers < 1:
            raise BackendError(f"worker pool needs at least 1 thread, got {workers}")
        self.image = ProcessImage(f"{self.transport}-target", catalog)
        self.buffers = HostedBuffers()
        self.workers = workers
        self.messages_executed = 0
        #: The catalog is frozen once serving starts; hashing it per
        #: PING would dominate the heartbeat RTT.
        self._digest: bytes | None = None
        self._token = threading.Lock()
        #: Every serving thread replies on the one pipe.
        self._send_lock = threading.Lock()
        #: Guards the depths and the counter; notified when
        #: ``_executing`` reaches zero.
        self._lock = threading.Condition(threading.Lock())
        self._executing = 0
        self._backlog: deque[tuple[int, Any]] = deque()
        self._reply_span = f"{self.transport}.server.reply"
        #: Why the loop ended (``None`` while serving).
        self.stopped: str | None = None

    def _next_frame(self) -> tuple[int, int, Any]:
        raise NotImplementedError

    def _reply(self, op: int, corr: int, *parts: Any) -> None:
        raise NotImplementedError

    # -- the leader/followers loop ------------------------------------------
    def _serve(self) -> None:
        """Run the loop on ``workers + 1`` daemon threads; returns once
        it has stopped *and* every booked invocation has replied. The
        caller only joins, so interrupting it ends serving at once."""
        threads = [
            threading.Thread(
                target=self._run, name=f"ham-{self.transport}-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _run(self) -> None:
        worker = threading.current_thread().name  # named on reply spans
        try:
            while True:
                with self._token:
                    job = None if self.stopped is not None else self._lead()
                if job is None:
                    return
                while job is not None:
                    self._execute_invoke(*job, worker)
                    with self._lock:
                        if self._backlog:
                            job = self._backlog.popleft()
                        else:
                            job = None
                            self._executing -= 1
                            if not self._executing:
                                self._lock.notify_all()
        except BaseException:
            # A bug in the loop: the others leave at their next turn.
            self.stopped = self.stopped or "internal error"
            raise

    def _lead(self) -> tuple[int, Any] | None:
        """Token held: serve frames until an invoke is booked for this
        thread (returned) or the loop stops (``None``)."""
        try:
            while True:
                op, corr, body = self._next_frame()
                if op == OP_INVOKE:
                    with self._lock:
                        if self._executing < self.workers:
                            self._executing += 1
                            return corr, body
                        self._backlog.append((corr, body))
                elif op == OP_SHUTDOWN:
                    # Acknowledged once nothing executes (the backlog is
                    # then empty too): the ack is the last frame sent.
                    with self._lock:
                        self._lock.wait_for(lambda: not self._executing)
                    self._handle_inline(op, corr, body)
                    self.stopped = "shutdown"
                    return None
                else:
                    self._handle_inline(op, corr, body)
        except BackendError as exc:
            # Client gone or stream corrupt: leave a cause to read.
            self.stopped = str(exc) or type(exc).__name__
            flightrecorder.note(
                "target.stopped", transport=self.transport, reason=self.stopped
            )
            print(
                f"{self.transport} target (pid {os.getpid()}) stopped "
                f"serving: {exc}", file=sys.stderr, flush=True,
            )
            return None

    # -- serving one frame ----------------------------------------------------
    def _send_failure(self, corr: int, exc: BaseException) -> None:
        info = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        try:
            self._reply(OP_FAILURE, corr, pickle.dumps(info))
        except self._CLIENT_GONE:
            pass

    def _reply_span_attrs(self) -> dict[str, Any]:
        """Transport-specific attributes of the server-side reply span."""
        return {}

    def _execute_invoke(self, corr: int, body: memoryview, worker: str) -> None:
        """Execute one invocation on the thread that read it; reply."""
        try:
            # The sampling verdict travels in the v2 header's flag byte:
            # unsampled messages (and only those — v1/flagless messages
            # predate sampling and record as before) skip the
            # server-side reply span entirely.
            traced = telemetry.enabled()
            if traced:
                flags = peek_trace_flags(body)
                traced = flags is None or bool(flags & trace_context.FLAG_SAMPLED)
            reply, _keep = execute_message(self.image, body, resolver=self._resolve)
            with self._lock:
                self.messages_executed += 1
                pending = self._executing + len(self._backlog)
            if not traced:
                self._reply(OP_INVOKE | OP_REPLY_BIT, corr, reply)
                return
            # Which thread produced which correlation id (the execute
            # span itself is recorded inside execute_message, parented to
            # the sender's trace). ``pending`` is the concurrent-invoke
            # depth at reply time — a slow reply with pending >= workers
            # is target-side congestion, with pending ~= 1 it is this
            # invocation's own execution.
            with telemetry.span(
                self._reply_span, worker=worker, corr=corr,
                bytes=len(reply), pending=pending, **self._reply_span_attrs(),
            ):
                self._reply(OP_INVOKE | OP_REPLY_BIT, corr, reply)
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self._send_failure(corr, exc)  # (dropped there if it has gone)

    def _handle_inline(self, op: int, corr: int, body: memoryview) -> None:
        """Answer one memory/control op on the reading thread."""
        try:
            if op == OP_PING:  # first: pings are the latency probe
                # Handshake: the body carries the client's catalog digest;
                # a mismatch means host and target were "built" from
                # different type sets and keys would not translate.
                digest = self._digest
                if digest is None:
                    digest = self._digest = self.image.digest()
                if len(body) and bytes(body) != digest:
                    raise BackendError(
                        "offloadable catalogs differ between host and target "
                        "(both sides must import the same application modules)"
                    )
                self._reply(OP_PING | OP_REPLY_BIT, corr, digest)
            elif op == OP_ALLOC:
                (nbytes,) = _U64.unpack(body)
                addr = self.buffers.alloc(nbytes)
                self._reply(OP_ALLOC | OP_REPLY_BIT, corr, _U64.pack(addr))
            elif op == OP_FREE:
                (addr,) = _U64.unpack(body)
                self.buffers.free(addr)
                self._reply(OP_FREE | OP_REPLY_BIT, corr, b"")
            elif op == OP_WRITE:
                (addr,) = _U64.unpack(body[:8])
                self.buffers.write(addr, body[8:])
                self._reply(OP_WRITE | OP_REPLY_BIT, corr, b"")
            elif op == OP_READ:
                (addr,) = _U64.unpack(body[:8])
                (nbytes,) = _U64.unpack(body[8:16])
                self._reply(
                    OP_READ | OP_REPLY_BIT, corr, self.buffers.read(addr, nbytes)
                )
            elif op == OP_TELEMETRY:
                # Drain this process's telemetry so the host can merge
                # target-side spans (offload.execute, ...) into one
                # timeline. Empty when telemetry is disabled here; a
                # forked server inherits the parent's enabled state.
                recorder = telemetry.get()
                rows = records_to_dicts(recorder.drain()) if recorder else []
                self._reply(
                    OP_TELEMETRY | OP_REPLY_BIT, corr,
                    pickle.dumps(rows, protocol=4),
                )
            elif op == OP_CLOCK:
                # Clock ping-pong: reply with this process's monotonic
                # clock so the client can estimate the offset between
                # the two perf_counter epochs (see telemetry.distributed).
                self._reply(
                    OP_CLOCK | OP_REPLY_BIT, corr,
                    _U64.pack(time.perf_counter_ns()),
                )
            elif op == OP_INTROSPECT:
                self._reply(
                    OP_INTROSPECT | OP_REPLY_BIT, corr,
                    pickle.dumps(self.introspect(), protocol=4),
                )
            elif op == OP_SHUTDOWN:  # the loop drained the invokes first
                self._reply(OP_SHUTDOWN | OP_REPLY_BIT, corr, b"")
            else:
                raise BackendError(f"unknown op {op:#x}")
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self._send_failure(corr, exc)  # (dropped there if it has gone)

    def introspect(self) -> dict[str, Any]:
        """Live target state, in the transport-agnostic introspection shape.

        Every target answers ``OP_INTROSPECT`` with this same dict layout
        so host-side tooling (``RuntimeInspector``, ``repro.telemetry.top``)
        needs no per-transport cases. ``rings`` is ``None`` for stream
        transports; the shm target fills it in.
        """
        with self._lock:
            executed = self.messages_executed
            active = self._executing
            pending = active + len(self._backlog)
        return {
            "role": "target",
            "transport": self.transport,
            "pid": os.getpid(),
            "workers": {"pool_size": self.workers, "active": active},
            "pending_invokes": pending,
            "messages_executed": executed,
            "live_buffers": self.buffers.live_count,
            "rings": None,
        }

    def _resolve(self, arg: Any) -> Any:
        if isinstance(arg, BufferPtr):
            return self.buffers.view(arg)
        return arg
