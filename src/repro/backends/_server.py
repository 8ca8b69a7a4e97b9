"""The frame grammar and the target-side server, for the shm and tcp transports.

A frame is ``length:u32 | op:u8 | corr:u64 | body`` whichever pipe
carries it (docs/protocols.md, "Real-path frames"). This module is the
only one that knows that: the op table, the prefix every frame is
packed with (:class:`FramedServer` here, ``FramedClient`` in
:mod:`repro.backends._client`) and the one decoder, :class:`FrameParser`,
which reads frames off any byte source — a stream socket or an shm
ring. Everything behind the byte pipe is one class: the inline
memory/control ops, running an invocation, failure replies,
introspection — and the **dispatch loop** that serves them.

The paper's VE loop polls the flag, runs the active-message handler
*itself* and stores the result back (Sec. IV-B). This is that loop for
``workers`` concurrent invocations, on ``workers + 1`` threads of which
exactly one, the **reader**, is ever in ``_next_frame``. Memory and
control operations run inline on it, strictly in arrival order. An
``OP_INVOKE`` is booked, executed and answered on the reader's own
stack, and the same thread goes on reading: no queue, no future, no
wake-up, no thread change per message. Two things move the reading to
another thread, and both are decided from what the loop measures:

* **The rule.** If the previous invocation ran longer than a hand-off
  costs (:data:`HANDOFF_PAYS_NS`), the reader hands the reading to a
  parked thread *before* it executes the next one, so kernels that
  block or compute for long overlap, up to ``workers`` of them.
* **The safety net.** One parked thread, the **standby**, looks at the
  reader every :data:`WATCH_INTERVAL` while invocations flow (and
  sleeps untimed once a whole interval saw none); a reader it finds
  inside the same invocation a full interval later — a straggler after
  fast kernels, a kernel wedged on the very first call — loses the
  reading to it. That is why a target wedged in its kernels still
  answers ``OP_INTROSPECT``.

With ``workers`` invocations executing, the reader parks further
invokes on a FIFO backlog that finishing executors drain before they
park themselves.

Replies to one burst of requests leave in one write: the reader holds
the reply of the invocation it is inside while its parser has bytes
left, and sends what it holds before it waits for more (``_reply``).
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import time
from collections import deque
from typing import Any

from repro.backends._target_memory import HostedBuffers
from repro.errors import BackendError, HamError, SerializationError
from repro.ham.execution import execute_message, failure_info
from repro.ham.message import parse_message
from repro.ham.registry import Catalog, ProcessImage
from repro.ham.serialization import LIST_ITEM_OVERHEAD, encode_list, serialize
from repro.offload.buffer import BufferPtr
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
#: Bytes a parser takes from its source per ``recv``: small enough that
#: the receive buffer comes from the allocator's heap, not a fresh mapping
#: per call. A frame longer than this is received into its own buffer.
_RECV_CHUNK = 64 * 1024

#: The op byte of an invocation's reply.
_INVOKE_REPLY = OP_INVOKE | OP_REPLY_BIT

#: Default number of concurrent INVOKEs a target executes.
DEFAULT_SERVER_WORKERS = 4

#: An invocation that ran longer than this (ns, wall clock — a sleeping
#: kernel uses no CPU — and without its reply) makes the reader hand the
#: reading on before it executes the next one. Six times what the
#: hand-off itself costs the target (~17 µs of CPU: a futex wake, a lost
#: GIL race, two switches), so an empty kernel (~7 µs) trips it only
#: when it is preempted, and the most a kernel just under it forgoes is
#: its own length in overlap.
HANDOFF_PAYS_NS = 100_000
#: How often (s) the standby looks at the reader while invocations flow.
#: A wedged reader is replaced within two intervals. At 1 ms the
#: wake-ups alone cost an empty shm offload 3–4 µs on a shared CPU.
WATCH_INTERVAL = 0.005


class FrameParser:
    """The one frame decoder, for both ends of both transports.

    It reads from any byte source with ``recv(n)`` (up to ``n`` bytes,
    ``b""`` at EOF) and ``recv_into(view)``: a stream socket, or an
    :class:`~repro.backends.shm.ShmRing`. :meth:`fill` is one ``recv``
    (a reader calls it once the source has bytes); :meth:`next_frame`
    hands out every complete frame it carried as a view into the
    received chunk — no per-frame buffer or copy. A frame longer than
    :data:`_RECV_CHUNK` is received into a buffer of its own, so bulk
    payloads are copied at most once. ``limit`` is the most bytes one
    frame may fill, its length prefix included: a ring's capacity, or
    tcp's :data:`~repro.backends.tcp.FRAME_LIMIT`; a longer frame is
    refused from its length alone, before anything is allocated for it.
    """

    def __init__(self, source: Any, limit: int) -> None:
        self._source = source
        self.limit = limit
        self._max_length = limit - _LEN.size
        #: Received bytes; the unparsed ones start at ``_pos``. Empty
        #: once every byte is parsed: a reader tests it for "anything
        #: left?" without a call.
        self._data = b""
        self._pos = 0
        #: A long frame being received, and how much of it has arrived.
        self._big: bytearray | None = None
        self._big_got = 0

    @property
    def buffered(self) -> int:
        """Bytes received of a frame that is not complete yet."""
        partial = len(self._data) - self._pos
        if self._big is not None:
            partial += _LEN.size + self._big_got
        return partial

    def fill(self) -> int:
        """One receive from the source; returns its byte count (0 at EOF)."""
        if self._big is not None:
            got = self._source.recv_into(memoryview(self._big)[self._big_got:])
            self._big_got += got
            return got
        chunk = self._source.recv(_RECV_CHUNK)
        got = len(chunk)
        self._data = self._data[self._pos:] + chunk if self._data else chunk
        self._pos = 0
        return got

    def next_frame(self) -> tuple[int, int, memoryview] | None:
        """The next complete ``(op, corr, body)``, or ``None`` when more
        bytes are needed. Raises :class:`BackendError` on a length
        outside ``[9, limit - 4]``: too short to hold its own header, or
        longer than any frame the source carries."""
        data = self._data
        pos = self._pos
        size = len(data)
        have = size - pos
        if have < _LEN.size:  # also while a long frame arrives: no data then
            big = self._big
            if big is None or self._big_got < len(big):
                return None
            self._big = None
            self._big_got = 0
            return big[0], _U64.unpack_from(big, 1)[0], memoryview(big)[_FRAME_META:]
        (length,) = _LEN.unpack_from(data, pos)
        if length < _FRAME_META or length > self._max_length:
            raise BackendError(
                f"{'short' if length < _FRAME_META else 'long'} frame: length "
                f"{length} outside [{_FRAME_META}, {self._max_length}] — a "
                "corrupt frame, or a peer that speaks another protocol"
            )
        end = pos + _LEN.size + length
        if end > size:
            if length > _RECV_CHUNK:
                self._big = big = bytearray(length)
                self._big_got = have - _LEN.size
                big[: self._big_got] = data[pos + _LEN.size:]
                self._data = b""
                self._pos = 0
            return None
        if end == size:
            self._data = b""
            self._pos = 0
        else:
            self._pos = end
        return (
            data[pos + _LEN.size],
            _U64.unpack_from(data, pos + _LEN.size + 1)[0],
            memoryview(data)[pos + FRAME_OVERHEAD:end],
        )


def _eof_error(parser: FrameParser, pending: int = 0) -> BackendError:
    """Describe an EOF precisely: partial frame bytes + orphaned ops."""
    context = ""
    if pending:
        context = (
            f"; {pending} pending operation{'s' if pending != 1 else ''}"
            " can no longer be matched"
        )
    if parser.buffered:
        return BackendError(
            f"connection closed mid-frame: {parser.buffered} byte(s) "
            f"of a partial frame received{context}"
        )
    return BackendError(f"connection closed by peer{context}")


def reset_forked_recorder() -> None:
    """First thing in a forked target: keep the recorder, drop its host side.

    The fork inherits the host recorder wholesale: its records (pulled
    back through ``OP_TELEMETRY`` they would land in the host ring
    twice), the forking thread's open spans, and the SLO monitor, whose
    windows would double-count (completions happen host-side).
    """
    recorder = telemetry.get()
    if recorder is not None:
        recorder.reset_after_fork()


class FramedServer:
    """One client, ``workers`` concurrent invocations, over any byte pipe.

    A transport sets ``_parser`` (a :class:`FrameParser` over its byte
    source) before it serves, and supplies ``_transmit(frame, nbytes)``,
    which puts one framed reply of ``nbytes`` on the pipe under the send
    lock. Only the reader receives (:meth:`_next_frame`); every serving
    thread replies (:meth:`_reply`).
    """

    #: "tcp" / "shm": names the image, the threads and the reply span.
    transport = ""
    #: What ``_reply`` raises when nobody is left to reply to.
    _CLIENT_GONE: tuple[type[BaseException], ...] = ()
    #: Times every kernel for :data:`HANDOFF_PAYS_NS`; a test
    #: substitutes its own, so that "ran long" is its decision.
    clock_ns = staticmethod(time.perf_counter_ns)

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
        #: Every serving thread replies on the one pipe.
        self._send_lock = threading.Lock()
        #: Under the send lock: the parts of the framed replies the
        #: reader holds back while more requests wait in its parser
        #: (joined into one buffer when sent: a scatter-gather write
        #: takes at most ``IOV_MAX`` parts), their byte count, and its
        #: bound, fixed once the parser exists (:meth:`_serve`).
        self._held: list[Any] = []
        self._held_bytes = 0
        self._hold_limit = 0
        #: Guards every field below and the counter above; the loop
        #: takes it twice per invocation, to book and to un-book.
        self._lock = threading.Lock()
        #: The standby waits here (timed while ``_watching``), ...
        self._standby = threading.Condition(self._lock)
        #: ... every other parked thread here (``_idle`` of them), ...
        self._parked = threading.Condition(self._lock)
        #: ... and ``OP_SHUTDOWN`` here, for ``_executing`` to reach
        #: zero; ``_draining`` while it does, so that only then is it
        #: notified.
        self._drained = threading.Condition(self._lock)
        self._draining = False
        self._executing = 0
        self._backlog: deque[tuple[int, Any]] = deque()
        #: Name of the thread that reads frames; ``None`` from a hand-off
        #: until a parked thread has taken it.
        self._reader: str | None = None
        #: Name of the parked thread that stands by.
        self._seat: str | None = None
        self._idle = 0
        self._watching = False
        #: ``(corr, body)`` the reader is executing, ``None`` while it reads.
        self._inside: tuple[int, Any] | None = None
        #: The last invocation to finish (or one found wedged) ran
        #: longer than :data:`HANDOFF_PAYS_NS`.
        self._ran_long = False
        self._handoffs = 0
        self._promotions = 0
        self._reply_span = f"{self.transport}.server.reply"
        #: Why the loop ended (``None`` while serving).
        self.stopped: str | None = None
        #: Rows of the ``OP_TELEMETRY`` pull under way not sent yet.
        self._unpulled: deque | None = None

    # -- the byte pipe ------------------------------------------------------------
    def _await_bytes(self) -> None:
        """Reader only: return once the byte source has bytes, raise
        :class:`BackendError` once the client is gone (a blocking
        socket's ``recv`` waits by itself)."""

    def _next_frame(self) -> tuple[int, int, memoryview]:
        """Reader only: the next frame, receiving more bytes as needed."""
        parser = self._parser
        # As the client's: an attribute test, not a call, between the
        # reply's tail store and the wait for the next request.
        frame = parser.next_frame() if parser._data else None
        while frame is None:
            if self._held:  # the burst is parsed: its replies leave now
                self._flush()
            self._await_bytes()
            try:
                received = parser.fill()
            except OSError as exc:
                raise BackendError(f"{self.transport} receive failed: {exc}") from exc
            if not received:
                raise _eof_error(parser)
            frame = parser.next_frame()
        return frame

    def _reply(self, op: int, corr: int, *parts: Any) -> None:
        """Frame one reply and send it, behind every reply held; any
        serving thread.

        The reply to the invocation the reader is inside is held instead
        while the parser has bytes left, up to :attr:`_hold_limit` bytes
        in all: the requests of one burst are answered in one write (a
        depth-1 request leaves nothing unparsed, so it is sent at once).
        Any other reply — another thread's, an inline op's, a failure —
        takes the held ones with it.
        """
        length = _FRAME_META + sum(map(len, parts))
        nbytes = _LEN.size + length
        frame = [_PREFIX.pack(length, op, corr), *parts]
        with self._send_lock:
            held = self._held
            inside = self._inside
            if (self._parser._data and inside is not None and inside[0] == corr
                    and op == _INVOKE_REPLY
                    and self._held_bytes + nbytes <= self._hold_limit):
                held += frame
                self._held_bytes += nbytes
                return
            if held:
                held_bytes = self._held_bytes
                self._held, self._held_bytes = [], 0
                if held_bytes + nbytes <= self._parser.limit:
                    frame = [b"".join(held), *frame]
                    nbytes += held_bytes
                else:  # too long to ride along: the held ones go first
                    self._transmit([b"".join(held)], held_bytes)
            self._transmit(frame, nbytes)

    def _flush(self) -> None:
        """Send the held replies, in one write; any serving thread."""
        with self._send_lock:
            held, nbytes = self._held, self._held_bytes
            if not held:
                return
            self._held, self._held_bytes = [], 0
            try:
                self._transmit([b"".join(held)], nbytes)
            except self._CLIENT_GONE:
                pass  # the reader's next receive finds the client gone

    # -- the dispatch loop ----------------------------------------------------
    def _serve(self) -> None:
        """Run the loop on ``workers + 1`` daemon threads; returns once
        it has stopped *and* every booked invocation has replied. The
        caller only joins, so interrupting it ends serving at once."""
        # A held burst never outgrows one receive, nor half a frame.
        self._hold_limit = min(_RECV_CHUNK, self._parser.limit // 2)
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
        me = threading.current_thread().name  # named on reply spans
        try:
            while self._take_reading(me):
                self._read(me)
        except BaseException:
            # A bug in the loop: the others leave at their next turn.
            self._stop("internal error")
            raise

    def _stop(self, reason: str) -> None:
        with self._lock:
            self.stopped = self.stopped or reason
            self._standby.notify_all()
            self._parked.notify_all()

    def _take_reading(self, me: str) -> bool:
        """Park until the reading falls to this thread (``True``) or the
        loop has stopped (``False``). Whoever parks and finds the
        standby's seat empty takes it; whoever takes the reading and
        leaves the seat empty calls an idle thread to it."""
        with self._lock:
            while self.stopped is None:
                vacant = self._seat is None or self._seat is me
                if self._reader is None:
                    self._reader = me
                    if vacant:
                        self._seat = None
                        self._parked.notify()
                    return True
                if vacant:
                    self._seat = me
                    self._stand_by()
                else:
                    self._idle += 1
                    self._parked.wait()
                    self._idle -= 1
            return False

    def _stand_by(self) -> None:
        """Lock held: one wait on the standby's seat. Notified (the
        reading was handed here, invocations flow again, the loop
        stopped), the caller looks again. Timed out, a whole interval
        has passed: the reader found inside the invocation it was
        already inside before the wait loses the reading."""
        inside, executed = self._inside, self.messages_executed
        if self._standby.wait(WATCH_INTERVAL if self._watching else None):
            return
        if self._inside is None:
            if self.messages_executed == executed:
                self._watching = False  # nothing flows: sleep untimed
        elif self._inside is inside:
            corr, body = inside
            flightrecorder.note(
                "target.promoted", transport=self.transport,
                reader=self._reader, corr=corr, functor=self._functor_of(body),
            )
            self._promotions += 1
            self._ran_long = True
            self._inside = None
            self._reader = None  # taken by the caller's next look

    def _functor_of(self, body: Any) -> str:
        """Type name of the functor an INVOKE body addresses."""
        try:
            key = parse_message(body)[0].handler_key
            return self.image.entry_for_key(key).type_name
        except HamError:  # malformed or unknown: its failure reply says so
            return "?"

    def _read(self, me: str) -> None:
        """This thread reads: serve frames, executing every invoke it
        books, until the reading has passed to another thread or the
        loop has stopped."""
        try:
            while True:
                op, corr, body = self._next_frame()
                if op == OP_INVOKE:
                    with self._lock:
                        if self._executing == self.workers:
                            self._backlog.append((corr, body))
                            continue
                        self._executing += 1
                        if self._ran_long:
                            # The hand-off pays: another thread reads
                            # while this one executes.
                            self._reader = None
                            self._handoffs += 1
                            (self._parked if self._idle else self._standby).notify()
                        else:
                            self._inside = (corr, body)
                            if not self._watching:
                                self._watching = True
                                self._standby.notify()
                    if not self._execute_booked(corr, body, me):
                        return
                elif op == OP_SHUTDOWN:
                    # Acknowledged once nothing executes (the backlog is
                    # then empty too): the ack is the last frame sent.
                    # Nothing held waits for that drain.
                    self._flush()
                    with self._lock:
                        self._draining = True
                        while self._executing:
                            self._drained.wait()
                        self._draining = False
                    self._handle_inline(op, corr, body)
                    self._stop("shutdown")
                    return
                else:
                    self._handle_inline(op, corr, body)
        except BackendError as exc:
            # Client gone or stream corrupt: leave a cause to read.
            self._stop(str(exc) or type(exc).__name__)
            flightrecorder.note(
                "target.stopped", transport=self.transport, reason=self.stopped
            )
            print(
                f"{self.transport} target (pid {os.getpid()}) stopped "
                f"serving: {exc}", file=sys.stderr, flush=True,
            )

    def _execute_booked(self, corr: int, body: Any, me: str) -> bool:
        """Execute a booked invocation, then what backed up behind the
        workers meanwhile, and un-book; ``True`` while this thread is
        still the reader of a running loop."""
        while True:
            ran_ns = self._execute_invoke(corr, body, me)
            with self._lock:
                if ran_ns is not None:
                    self.messages_executed += 1
                    self._ran_long = ran_ns > HANDOFF_PAYS_NS
                reading = self._reader is me
                if reading:
                    self._inside = None
                if self._backlog:
                    corr, body = self._backlog.popleft()
                    continue
                self._executing -= 1
                if not self._executing and self._draining:
                    self._drained.notify_all()
                return reading and self.stopped is None

    # -- serving one frame ----------------------------------------------------
    def _send_failure(self, corr: int, exc: BaseException) -> None:
        try:
            self._reply(OP_FAILURE, corr, serialize(failure_info(exc)))
        except self._CLIENT_GONE:
            pass

    def _reply_span_attrs(self) -> dict[str, Any]:
        """Transport-specific attributes of the server-side reply span."""
        return {}

    def _execute_invoke(
        self, corr: int, body: memoryview, worker: str
    ) -> int | None:
        """Execute one booked invocation and reply. Returns how long it
        ran (ns, without the reply: on a shared CPU the client is
        scheduled inside the send, which says nothing about the kernel),
        ``None`` for a message refused as malformed instead."""
        ran_ns = None
        try:
            recorder = telemetry.get()
            began = self.clock_ns()
            reply, _keep = execute_message(
                self.image, body, self._resolve, recorder=recorder
            )
            ran_ns = self.clock_ns() - began
            if recorder is None:
                self._reply(_INVOKE_REPLY, corr, reply)
                return ran_ns
            with self._lock:
                pending = self._executing + len(self._backlog)
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
                self._reply(_INVOKE_REPLY, corr, reply)
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self._send_failure(corr, exc)  # (dropped there if it has gone)
        return ran_ns

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
                self._reply(OP_TELEMETRY | OP_REPLY_BIT, corr, self._pull_rows())
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
                    OP_INTROSPECT | OP_REPLY_BIT, corr, serialize(self.introspect())
                )
            elif op == OP_SHUTDOWN:  # the loop drained the invokes first
                self._reply(OP_SHUTDOWN | OP_REPLY_BIT, corr, b"")
            else:
                raise BackendError(f"unknown op {op:#x}")
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self._send_failure(corr, exc)  # (dropped there if it has gone)

    def _pull_rows(self) -> bytes:
        """One ``OP_TELEMETRY`` reply body: the list of the oldest rows of
        this process's records not pulled yet, as many as fit one frame.

        The host pulls until a reply carries none, which ends the pull;
        what is recorded meanwhile waits for the next one, so a pull ends
        even when the host shares this recorder. Empty when telemetry is
        disabled here; a forked server inherits the parent's state.
        """
        rows = self._unpulled
        if rows is None:  # a pull begins
            recorder = telemetry.get()
            rows = deque(records_to_dicts(recorder.drain()) if recorder else ())
        room = self._parser.limit - FRAME_OVERHEAD - len(encode_list([]))
        page: list = []  # the rows' serialize() bytes
        used = 0
        while rows:
            encoded = rows[0]
            if encoded.__class__ is not bytes:  # not encoded by the last page
                attrs = encoded.get("attrs")
                try:  # a row's share of a page: the page is sized exactly
                    encoded = serialize(encoded)
                    size = LIST_ITEM_OVERHEAD + len(encoded)
                    dropped = size > room and {"attrs_dropped_bytes": size}
                except SerializationError as exc:  # an attribute with no code
                    if not attrs:
                        raise
                    dropped = {"attrs_dropped": str(exc)}
                if dropped and attrs:  # too big for any frame, or no code: the
                    # record travels without its attributes, which it says it lost
                    rows[0] = {**rows[0], "attrs": dropped}
                    continue
            size = LIST_ITEM_OVERHEAD + len(encoded)
            if page and used + size > room:
                rows[0] = encoded  # the next page's first row, encoded once
                break
            used += size
            page.append(encoded)
            rows.popleft()
        self._unpulled = rows if page else None
        return encode_list(page)

    def introspect(self) -> dict[str, Any]:
        """Live target state, in the transport-agnostic introspection shape.

        Every target answers ``OP_INTROSPECT`` with this same dict layout
        so host-side tooling (``offload.introspect()``, ``repro.telemetry.top``)
        needs no per-transport cases. ``rings`` is ``None`` for stream
        transports; the shm target fills it in.
        """
        with self._lock:
            executed = self.messages_executed
            active = self._executing
            pending = active + len(self._backlog)
            dispatch = {
                "reader": self._reader,
                "handoffs": self._handoffs,
                "promotions": self._promotions,
            }
        return {
            "role": "target",
            "transport": self.transport,
            "pid": os.getpid(),
            "workers": {"pool_size": self.workers, "active": active},
            "dispatch": dispatch,
            "pending_invokes": pending,
            "messages_executed": executed,
            "live_buffers": self.buffers.live_count,
            "rings": None,
        }

    def _resolve(self, arg: Any) -> Any:
        if isinstance(arg, BufferPtr):
            return self.buffers.view(arg)
        return arg
