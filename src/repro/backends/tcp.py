"""TCP/IP communication backend — the pipelined channel transport.

The functional counterpart of the paper's generic TCP backend
("interoperability rather than performance", Sec. I-A): real sockets,
real processes, genuine asynchrony. The target runs
:class:`TcpTargetServer` — either spawned in a forked child via
:func:`spawn_local_server` (the fork inherits the application's
offloadable catalog, mirroring "build the same application for both
sides") or started manually on another machine.

Wire protocol (all integers little-endian)::

    frame   := length:u32 | op:u8 | corr:u64 | body      (length = 9 + len(body))
    op 0x01 INVOKE    body = HAM message          -> 0x81 body = HAM reply
    op 0x02 ALLOC     body = nbytes:u64           -> 0x82 body = addr:u64
    op 0x03 FREE      body = addr:u64             -> 0x83 body = ""
    op 0x04 WRITE     body = addr:u64 | data      -> 0x84 body = ""
    op 0x05 READ      body = addr:u64 | n:u64     -> 0x85 body = data
    op 0x06 SHUTDOWN  body = ""                   -> 0x86 body = ""
    op 0x07 PING      body = ""                   -> 0x87 body = ""
    op 0x08 TELEMETRY body = ""                   -> 0x88 body = pickled records
    op 0x09 CLOCK     body = ""                   -> 0x89 body = perf_ns:u64
    op 0x0A INTROSPECT body = ""                  -> 0x8A body = pickled state
    any failure                                    -> 0xFF body = pickled info

Every frame carries a **correlation id**; replies (including failure
replies) echo the request's id. The client matches replies through an
id-keyed table instead of a FIFO, so they may arrive in any order —
which is what lets the target execute invocations concurrently (the
leader/followers loop of :mod:`repro.backends._server`) while memory
operations stay synchronous roundtrips.

Frames are assembled with vectored I/O (``sendmsg``): large array
payloads travel as ``memoryview`` parts straight from the arrays' own
storage, never concatenated host-side. Small invoke frames take the
**coalescing path** instead (:class:`~repro.backends.base.FrameCoalescer`):
they accumulate into one ``sendmsg`` batch flushed on byte budget,
frame count or a sub-millisecond deadline. A batch is just frames
back-to-back on the stream; both ends decode it with the same
:class:`FrameParser`, many frames from one ``recv``.

The client's inbound side is owned by the process-wide reactor
(:mod:`repro.backends.eventloop`): the socket registers a read
callback and frames are parsed incrementally on the shared loop
thread. There is **no per-connection receiver thread** — fifty
connections cost one loop, not fifty blocking readers.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.backends import eventloop
from repro.backends._server import (  # noqa: F401 - the op table lives there
    OP_ALLOC,
    OP_CLOCK,
    OP_FAILURE,
    OP_FREE,
    OP_INTROSPECT,
    OP_INVOKE,
    OP_PING,
    OP_READ,
    OP_REPLY_BIT,
    OP_SHUTDOWN,
    OP_TELEMETRY,
    OP_WRITE,
    FramedServer,
)
from repro.backends.base import Backend, CoalescePolicy, FrameCoalescer, InvokeHandle
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham.execution import build_invoke_parts
from repro.ham.functor import Functor
from repro.ham.message import peek_trace
from repro.ham.registry import Catalog, ProcessImage
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.telemetry import context as trace_context
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.distributed import ClockSync, align_records
from repro.telemetry.export import dicts_to_records

__all__ = ["TcpBackend", "TcpTargetServer", "spawn_local_server"]

_LEN = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: ``length | op | corr`` — the frame prefix (13 bytes).
_PREFIX = struct.Struct("<IBQ")
#: op byte + correlation id, counted inside the frame length.
_FRAME_META = 1 + _U64.size
#: Full on-wire overhead of one frame (length prefix + op + corr).
FRAME_OVERHEAD = _LEN.size + _FRAME_META

#: Default number of concurrent INVOKEs a target executes.
DEFAULT_SERVER_WORKERS = 4

#: Bytes pulled off the socket per ``recv``. Bounded so one firehose
#: connection cannot monopolize the shared loop (the level-triggered
#: selector re-fires while data remains) and small enough that the
#: receive buffer comes from the allocator's heap, not a fresh mapping
#: per call. A frame longer than this is received into its own buffer.
_RECV_CHUNK = 64 * 1024


def _sendmsg_all(sock: socket.socket, parts: list) -> None:
    """Send every buffer in ``parts`` with scatter-gather writes.

    ``sendmsg`` hands the kernel the buffer list directly, so large
    array payloads are never concatenated in user space. Partial sends
    are resumed by slicing the remaining views.
    """
    views = [memoryview(part) for part in parts if len(part)]
    while views:
        sent = sock.sendmsg(views)
        while sent:
            head = views[0]
            if sent >= len(head):
                sent -= len(head)
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def _send_frame(sock: socket.socket, op: int, corr: int, *parts) -> int:
    """Send one frame; returns the number of wire bytes."""
    body_len = sum(len(part) for part in parts)
    _sendmsg_all(sock, [_PREFIX.pack(_FRAME_META + body_len, op, corr), *parts])
    return FRAME_OVERHEAD + body_len


def _recv_frame(sock: socket.socket) -> tuple[int, int, memoryview]:
    """Read exactly one frame; returns ``(op, correlation_id, body_view)``.

    The stateless reader of the tests' stub servers — it never reads
    past the frame. Both transport ends decode with :class:`FrameParser`.
    """

    def exact(nbytes: int, what: str) -> bytes:
        data = sock.recv(nbytes, socket.MSG_WAITALL)
        if len(data) < nbytes:
            raise BackendError(
                f"connection closed mid-{what}: received {len(data)} of "
                f"{nbytes} expected bytes"
            )
        return data

    (length,) = _LEN.unpack(exact(_LEN.size, "frame header"))
    if length < _FRAME_META:
        raise BackendError(f"short frame: length {length} < {_FRAME_META}")
    payload = exact(length, "frame payload")
    return payload[0], _U64.unpack_from(payload, 1)[0], memoryview(payload)[_FRAME_META:]


class FrameParser:
    """Incremental frame decoder over one stream socket, for both ends.

    :meth:`fill` is one ``recv`` (the host reactor calls it when the
    socket is readable, the target's leader when it runs out of frames);
    :meth:`next_frame` hands out every complete frame it carried as a
    view into the received chunk — no per-frame buffer or syscall. A
    frame longer than :data:`_RECV_CHUNK` is received into a buffer of
    its own, so bulk payloads are copied at most once.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        #: Received bytes; the unparsed ones start at ``_pos``.
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
        """One receive syscall; returns its byte count (0 at EOF)."""
        if self._big is not None:
            got = self._sock.recv_into(memoryview(self._big)[self._big_got:])
            self._big_got += got
            return got
        chunk = self._sock.recv(_RECV_CHUNK)
        rest = self._data[self._pos:]
        self._data = rest + chunk if rest else chunk
        self._pos = 0
        return len(chunk)

    def next_frame(self) -> tuple[int, int, memoryview] | None:
        """The next complete ``(op, corr, body)``, or ``None`` when more
        bytes are needed. Raises :class:`BackendError` on a frame too
        short to hold its own header."""
        big = self._big
        if big is not None:
            if self._big_got < len(big):
                return None
            self._big = None
            self._big_got = 0
            return big[0], _U64.unpack_from(big, 1)[0], memoryview(big)[_FRAME_META:]
        data = self._data
        pos = self._pos
        have = len(data) - pos
        if have < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(data, pos)
        if length < _FRAME_META:
            raise BackendError(
                f"short frame: length {length} < op + correlation header "
                f"({_FRAME_META} bytes)"
            )
        end = pos + _LEN.size + length
        if end > len(data):
            if length > _RECV_CHUNK:
                self._big = big = bytearray(length)
                self._big_got = have - _LEN.size
                big[: self._big_got] = data[pos + _LEN.size:]
                self._data = b""
                self._pos = 0
            return None
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


try:  # Linux-only kernel queue probes; depths read as zero elsewhere.
    import fcntl
    import termios

    _TIOCOUTQ: int | None = getattr(termios, "TIOCOUTQ", None)
    _FIONREAD: int | None = getattr(termios, "FIONREAD", None)
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]
    _TIOCOUTQ = None
    _FIONREAD = None


def _socket_ioctl(sock: socket.socket, request: int | None) -> int:
    if fcntl is None or request is None:
        return 0
    try:
        return int(
            struct.unpack("@i", fcntl.ioctl(sock.fileno(), request, b"\0" * 4))[0]
        )
    except (OSError, ValueError):
        return 0


def socket_queue_depths(sock: socket.socket) -> dict[str, int]:
    """Kernel-side socket queue occupancy, in bytes.

    ``send_queue`` is data accepted by the kernel but not yet acked by
    the peer (``TIOCOUTQ``); ``recv_queue`` is data the peer sent that
    this process has not yet read (``FIONREAD``). A persistently deep
    send queue means the *network or peer* is the bottleneck; a deep
    recv queue means *this process* is not draining replies. Both read
    as zero on platforms without the ioctls or once the socket closes.
    """
    return {
        "send_queue": _socket_ioctl(sock, _TIOCOUTQ),
        "recv_queue": _socket_ioctl(sock, _FIONREAD),
    }


class TcpTargetServer(FramedServer):
    """The target-side message loop: one client, concurrent execution.

    Frames are served by the leader/followers loop of
    :class:`~repro.backends._server.FramedServer`: the thread that reads
    an INVOKE executes it and replies on its own stack while another
    takes over the socket, so up to ``workers`` independent offloads
    execute concurrently and replies return in completion order (each
    tagged with its correlation id). Memory and control operations are
    handled inline on whichever thread is reading — they are cheap and
    their strict ordering keeps alloc/free races out of the picture.
    """

    transport = "tcp"
    _CLIENT_GONE = (OSError,)

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        catalog: Catalog | None = None,
        workers: int = DEFAULT_SERVER_WORKERS,
    ) -> None:
        super().__init__(catalog, workers)
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        #: Every serving thread replies on the one socket.
        self._send_lock = threading.Lock()

    def serve_forever(self) -> None:
        """Accept one client and serve requests until SHUTDOWN/EOF."""
        self._conn, _peer = self._listener.accept()
        try:
            with self._conn as conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._parser = FrameParser(conn)
                self._serve()
        finally:
            self._listener.close()

    def _next_frame(self) -> tuple[int, int, memoryview]:
        """Leader only: the next frame, receiving more bytes as needed."""
        parser = self._parser
        while True:
            frame = parser.next_frame()
            if frame is not None:
                return frame
            try:
                received = parser.fill()
            except OSError as exc:
                raise BackendError(f"tcp receive failed: {exc}") from exc
            if not received:
                raise _eof_error(parser)

    def _reply(self, op: int, corr: int, *parts) -> None:
        with self._send_lock:
            _send_frame(self._conn, op, corr, *parts)


def _unsampled_reply_context(body) -> "trace_context.TraceContext | None":
    """The reply's trace context, only when it is unsampled.

    Sampled (and untraced/v1) replies return ``None`` so their
    ``offload.reply`` span records exactly as before; an unsampled
    reply's context routes the span through the recorder's sampling
    gate, tying its fate to the trace's tail-retention verdict.
    """
    peeked = peek_trace(body)
    if peeked is None:
        return None
    tid, _parent, flags = peeked
    if tid == 0 or flags & trace_context.FLAG_SAMPLED:
        return None
    return trace_context.TraceContext(trace_id=tid, sampled=False)


def _server_entry(
    port_pipe: Any, catalog: Catalog | None, workers: int
) -> None:
    recorder = telemetry.get()
    if recorder is not None:
        # The fork inherits the host recorder wholesale, including the
        # host-only sampling machinery. A tail pipeline here would stage
        # unsampled spans that no completion ever settles (completions
        # happen host-side), and SLO windows would double-count — the
        # target is the "skip unsampled work entirely" side.
        recorder.sampler = None
        recorder.pipeline = None
        recorder.slo = None
    server = TcpTargetServer(catalog=catalog, workers=workers)
    port_pipe.send(server.address)
    port_pipe.close()
    server.serve_forever()


def spawn_local_server(
    catalog: Catalog | None = None,
    *,
    startup_timeout: float = 10.0,
    workers: int = DEFAULT_SERVER_WORKERS,
) -> tuple[multiprocessing.Process, tuple[str, int]]:
    """Fork a target-server child process; returns ``(process, address)``.

    Forking inherits the parent's imported modules and offloadable
    catalog — the moral equivalent of building host and target binaries
    from the same source. ``startup_timeout`` bounds the wait for the
    child to report its listening address; ``workers`` sizes the
    server's concurrent-execution pool.
    """
    ctx = multiprocessing.get_context("fork")
    parent_pipe, child_pipe = ctx.Pipe()
    process = ctx.Process(
        target=_server_entry, args=(child_pipe, catalog, workers), daemon=True
    )
    process.start()
    child_pipe.close()
    if not parent_pipe.poll(startup_timeout):
        process.terminate()
        raise BackendError(
            f"TCP target server did not start within {startup_timeout:g} s"
        )
    address = parent_pipe.recv()
    parent_pipe.close()
    return process, address


class TcpBackend(Backend):
    """Client side of the TCP backend (one target).

    The inbound side of the socket is owned by the process-wide
    reactor (:mod:`repro.backends.eventloop`): a read callback parses
    frames incrementally on the shared loop thread, matches each reply
    to its request through the correlation-id table, and completes the
    waiting handle — so replies complete out of order and a soft
    timeout never desynchronizes the stream (the frame is simply
    matched when it eventually arrives). No thread is spawned per
    connection; every ``TcpBackend`` in the process shares one loop.

    The outbound side coalesces small invoke frames into one
    ``sendmsg`` batch (see :class:`~repro.backends.base.FrameCoalescer`),
    adapting to the observed in-flight depth: batches build under
    pipelined load, single frames flush immediately when the caller is
    latency-bound. Synchronous roundtrips and large payloads flush the
    buffer first, so frame order on the stream is preserved.

    Parameters
    ----------
    address:
        ``(host, port)`` of a running :class:`TcpTargetServer`.
    catalog:
        The offloadable catalog (defaults to the global one).
    on_shutdown:
        Optional callable invoked after the connection closes (used to
        join a spawned server process).
    op_timeout:
        Default deadline in seconds for every blocking operation
        (roundtrips and blocking drives). ``None`` (the default)
        preserves the raw protocol's behavior of waiting indefinitely;
        installing a :class:`~repro.offload.resilience.ResiliencePolicy`
        on the runtime sets this via :meth:`set_default_timeout`.
    connect_timeout:
        Deadline for establishing the connection and handshake.
    batch:
        Coalescing knobs: ``True``/``None`` for the adaptive defaults,
        ``False`` to disable (every frame is its own send, the PR 4
        wire behavior), or a dict of
        :class:`~repro.backends.base.CoalescePolicy` overrides
        (``max_bytes``, ``max_frames``, ``max_delay_us``,
        ``idle_depth``).
    """

    name = "tcp"

    def __init__(
        self,
        address: tuple[str, int],
        catalog: Catalog | None = None,
        on_shutdown: Callable[[], None] | None = None,
        *,
        op_timeout: float | None = None,
        connect_timeout: float = 10.0,
        batch: Any = None,
    ) -> None:
        super().__init__()
        self.host_image = ProcessImage("tcp-host", catalog)
        self.address = address
        self._on_shutdown = on_shutdown
        self.op_timeout = op_timeout
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        #: Correlation id -> reply sink: ("invoke", handle) or ("sync", box).
        self._pending: dict[int, tuple[str, Any]] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._msg_id = 0
        self._alive = True
        self._closed = False
        self._closing = False
        self.invokes_posted = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Inbound frame decoder, touched only on the loop.
        self._parser = FrameParser(self._sock)
        self._io_detached = False
        self._reactor = eventloop.get_reactor()
        policy = CoalescePolicy.from_option(batch)
        self._coalescer: FrameCoalescer | None = None
        if policy is not None:
            self._coalescer = FrameCoalescer(
                transmit=self._transmit_batch,
                schedule=self._reactor.call_later,
                policy=policy,
                depth=self._pending_count,
            )
        self._reactor.register(self._sock, self._on_readable)
        try:
            # Handshake: fetch the server's catalog digest and compare, to
            # fail fast when host and target registered different
            # offloadable sets. (An empty body asks without asserting, so
            # the comparison happens client-side with a precise error.)
            server_digest = self._roundtrip(OP_PING, timeout=connect_timeout)
            if server_digest and bytes(server_digest) != self.host_image.digest():
                raise BackendError(
                    "offloadable catalogs differ between host and target "
                    "(both sides must import the same application modules)"
                )
        except BaseException:
            self._closing = True
            self._alive = False
            self._teardown_io()
            raise
        #: Target->host clock mapping, estimated at connect by clock
        #: ping-pong (see :mod:`repro.telemetry.distributed`) and
        #: refreshed on every telemetry pull. Identity when the server
        #: predates ``OP_CLOCK``, or when telemetry is off (untraced
        #: workloads get zero extra connect traffic).
        if telemetry.get() is not None:
            self.clock_sync = self._estimate_clock()
        else:
            self.clock_sync = ClockSync.identity()

    def _clock_probe(self, timeout: float) -> tuple[int, int, int]:
        """One ping-pong round: ``(t0_host, t_target, t1_host)`` in ns."""
        t0 = time.perf_counter_ns()
        body = self._roundtrip(OP_CLOCK, timeout=timeout)
        t1 = time.perf_counter_ns()
        return t0, _U64.unpack(body)[0], t1

    def _estimate_clock(
        self, rounds: int = 8, timeout: float | None = None
    ) -> ClockSync:
        """Ping-pong the server's clock; identity if it lacks OP_CLOCK."""
        per_probe = timeout if timeout is not None else (self.op_timeout or 5.0)
        try:
            return ClockSync.estimate(
                lambda: self._clock_probe(per_probe), rounds=rounds
            )
        except (RemoteExecutionError, OffloadTimeoutError, BackendError):
            # Older server without OP_CLOCK (or one too wedged or broken
            # to answer): fall back to the shared monotonic clock. If the
            # probe killed the transport the next real op reports it.
            return ClockSync.identity()

    # -- topology -------------------------------------------------------------
    def num_nodes(self) -> int:
        return 2

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", "tcp backend host")
        self.check_target(node)
        return NodeDescriptor(
            node, f"tcp:{self.address[0]}:{self.address[1]}", "cpu", "tcp target"
        )

    # -- reply plumbing -----------------------------------------------------------
    def _pending_count(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def _next_corr(self) -> int:
        """Correlation id for a synchronous (non-invoke) operation.

        Drawn from the same process-wide counter as invoke handles so
        ids never collide across the two kinds of traffic.
        """
        return next(InvokeHandle._ids)

    def _fail_pending(self, error: BaseException) -> None:
        """Declare the connection lost: mark dead, fail every expectation.

        A receive error or EOF means no outstanding operation can ever be
        matched again — they all inherit ``error`` instead of hanging.
        Frames still sitting in the coalescing buffer can never be
        delivered either: they are dropped and the queued byte count is
        folded into the error every waiter sees.
        """
        self._alive = False
        if self._coalescer is not None:
            frames, queued = self._coalescer.discard()
            if frames:
                error = BackendError(
                    f"{error}; dropped {frames} coalesced frame"
                    f"{'s' if frames != 1 else ''} ({queued} bytes) still "
                    "queued for send"
                )
        with self._pending_lock:
            sinks = list(self._pending.values())
            self._pending.clear()
        if not (self._closing or self._closed):
            # Unplanned loss is exactly what the flight recorder exists
            # for: capture the last few seconds of events before the
            # failure cascades through retries and failover. A close
            # initiated by shutdown() records nothing (the receiver may
            # see the server's EOF before shutdown() flips _closing).
            flightrecorder.trigger(
                "peer_death",
                force=True,  # rare + catastrophic: never debounced away
                transport=self.name,
                address=f"{self.address[0]}:{self.address[1]}",
                orphaned=len(sinks),
                error=str(error),
            )
        for kind, sink in sinks:
            if kind == "invoke":
                sink.complete_with_error(error)
            else:
                sink["error"] = error
                sink["event"].set()
        self._teardown_io()

    def _teardown_io(self) -> None:
        """Detach from the reactor, close the socket, drop the loop ref.

        Idempotent; safe from any thread including the loop itself
        (a receive error tears down from inside the read callback).
        """
        if self._io_detached:
            return
        self._io_detached = True
        self._reactor.unregister(self._sock)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never fails on Linux
            pass
        eventloop.release_reactor(self._reactor)

    def _send(self, op: int, corr: int, *parts) -> None:
        """Send one frame now, flushing any coalesced frames first.

        The ordered path for synchronous operations and large
        payloads: everything buffered ahead of this frame goes out
        before it, so the stream never reorders around a roundtrip.
        Socket failures are translated into :class:`BackendError`.
        """
        if self._coalescer is not None:
            self._coalescer.flush("sync")
        try:
            with self._send_lock:
                sent = _send_frame(self._sock, op, corr, *parts)
        except OSError as exc:
            error = BackendError(f"tcp send failed: {exc}")
            self._fail_pending(error)
            raise error from exc
        self.bytes_sent += sent

    def _transmit_batch(self, parts: list[Any]) -> None:
        """Coalescer sink: one scatter-gather send for a whole batch."""
        nbytes = sum(len(part) for part in parts)
        try:
            with self._send_lock:
                _sendmsg_all(self._sock, parts)
        except OSError as exc:
            error = BackendError(f"tcp send failed: {exc}")
            self._fail_pending(error)
            raise error from exc
        self.bytes_sent += nbytes

    def _post_frame(self, op: int, corr: int, *parts) -> None:
        """Send or buffer one invoke frame (the coalescing path).

        Small frames are copied into the batch buffer — detaching them
        from caller-owned array storage, since the flush may happen up
        to the coalescing deadline later — and ride the next
        ``sendmsg`` batch. Large frames keep the zero-copy
        scatter-gather path, flushing the buffer first so stream order
        is preserved.
        """
        coalescer = self._coalescer
        body_len = sum(len(part) for part in parts)
        if (
            coalescer is None
            or _FRAME_META + body_len >= coalescer.policy.max_bytes
        ):
            self._send(op, corr, *parts)
            return
        frame = b"".join((_PREFIX.pack(_FRAME_META + body_len, op, corr), *parts))
        coalescer.add([frame], len(frame))

    def _on_readable(self) -> None:
        """Reactor read callback: drain a chunk, dispatch complete frames.

        Only the loop thread reads the socket, so a waiter's deadline
        expiring never consumes half a frame — soft timeouts leave the
        stream intact and the late reply is matched (or discarded) when
        it arrives. EOF and receive errors poison the backend and fail
        everything outstanding.
        """
        parser = self._parser
        try:
            received = parser.fill()
        except (BlockingIOError, InterruptedError):  # pragma: no cover
            return
        except OSError as exc:
            self._connection_lost(BackendError(f"tcp receive failed: {exc}"))
            return
        if not received:
            self._connection_lost(_eof_error(parser, self._pending_count()))
            return
        self.bytes_received += received
        while True:
            try:
                frame = parser.next_frame()
            except BackendError as exc:
                self._connection_lost(exc)
                return
            if frame is None:
                return
            op, corr, body = frame
            # Telemetry phase ``offload.reply``: one reply frame pulled
            # off the wire (the pre-reply wait lives in
            # ``offload.transport``). The loop thread runs outside any
            # trace context, so the span is closed under the reply's
            # own (peeked) context when that trace is unsampled — the
            # recorder gate then stages it with the trace instead of
            # polluting the ring on the fast path.
            if telemetry.enabled():  # peeking the header is not free
                reply_span = telemetry.span("offload.reply")
                reply_span.__enter__()
                reply_span.set("bytes", len(body) + FRAME_OVERHEAD)
                with trace_context.activate(_unsampled_reply_context(body)):
                    reply_span.__exit__(None, None, None)
            self._dispatch_reply(op, corr, body)

    def _connection_lost(self, error: BackendError) -> None:
        """Loop-side connection teardown (EOF or receive error)."""
        if self._closing or self._closed:
            self._teardown_io()  # planned close: nothing left to fail
            return
        self._fail_pending(error)

    def _dispatch_reply(self, op: int, corr: int, body: memoryview) -> None:
        """Complete the expectation filed under ``corr`` (any order)."""
        with self._pending_lock:
            entry = self._pending.pop(corr, None)
        if entry is None:
            # A reply nothing waits for: its expectation was already
            # failed, or the peer invented a correlation id. Either way
            # the stream itself stays consistent — count and move on.
            telemetry.count("tcp.unmatched_replies")
            return
        kind, sink = entry
        if op == OP_FAILURE:
            info = pickle.loads(body)
            failure: BaseException = RemoteExecutionError(
                f"remote {info['type']}: {info['message']}",
                remote_traceback=info.get("traceback", ""),
            )
            if kind == "invoke":
                sink.complete_with_error(failure)
            else:
                sink["error"] = failure
                sink["event"].set()
            return
        if kind == "invoke":
            if op != (OP_INVOKE | OP_REPLY_BIT):
                sink.complete_with_error(
                    BackendError(f"expected invoke reply, got op {op:#x}")
                )
                return
            sink.complete_with_reply(body)
            if telemetry.enabled():  # the depth is read under a lock
                telemetry.gauge("tcp.pending_replies", self._pending_count())
        else:
            if op != (sink["op"] | OP_REPLY_BIT):
                sink["error"] = BackendError(
                    f"expected reply to op {sink['op']:#x}, got {op:#x}"
                )
            else:
                sink["body"] = body
            sink["event"].set()

    def _roundtrip(
        self, op: int, *parts, timeout: float | None = None
    ) -> memoryview:
        """Synchronous request: send, then wait for the matching reply.

        ``timeout`` (defaulting to :attr:`op_timeout`) bounds the whole
        roundtrip; on expiry an :class:`OffloadTimeoutError` is raised
        *softly* — the expectation stays registered, so the stream is
        not poisoned and a late reply is consumed silently.
        """
        self._check_alive()
        effective = timeout if timeout is not None else self.op_timeout
        corr = self._next_corr()
        box: dict[str, Any] = {"op": op, "event": threading.Event()}
        with self._pending_lock:
            self._pending[corr] = ("sync", box)
        self._send(op, corr, *parts)
        if not box["event"].wait(effective):
            raise OffloadTimeoutError(
                f"no reply from {self.address[0]}:{self.address[1]} "
                "within the deadline"
            )
        if "error" in box:
            raise box["error"]
        return box["body"]

    # -- invocation --------------------------------------------------------------
    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        self._check_alive()
        self.check_target(node)
        # Backpressure point: a window slot must free up (receiver thread
        # completes a handle) before another invoke may enter the pipe.
        self._admit_invoke(label=functor.type_name)
        try:
            self._check_alive()
            self._msg_id += 1
            parts = build_invoke_parts(self.host_image, functor, self._msg_id)
            # Only the enqueue span reads the size.
            total = sum(map(len, parts)) if telemetry.enabled() else 0
            handle = InvokeHandle(self, label=functor.type_name)
        except BaseException:
            self.window.cancel()
            raise
        # Telemetry phase ``offload.enqueue``: filing the reply
        # expectation and pushing the frame onto the socket.
        with telemetry.span(
            "offload.enqueue", bytes=total, functor=functor.type_name,
            corr=handle.correlation_id,
        ):
            with self._pending_lock:
                self._pending[handle.correlation_id] = ("invoke", handle)
            self._register_invoke(handle)
            try:
                self._post_frame(OP_INVOKE, handle.correlation_id, *parts)
            except BaseException as exc:
                # The handle is already registered: completing it with
                # the error frees its window slot (a bare re-raise would
                # leak the slot until the window drained to zero).
                with self._pending_lock:
                    self._pending.pop(handle.correlation_id, None)
                handle.complete_with_error(
                    exc if isinstance(exc, BackendError)
                    else BackendError(f"send failed while posting invoke: {exc}")
                )
                raise
        # The receiver may have declared the connection lost between the
        # aliveness check and our registration; a handle filed after that
        # drain would wait forever, so fail it here ourselves.
        if not self._alive:
            with self._pending_lock:
                entry = self._pending.pop(handle.correlation_id, None)
            if entry is not None:
                handle.complete_with_error(
                    BackendError("tcp connection lost while posting invoke")
                )
        self.invokes_posted += 1
        if telemetry.enabled():
            telemetry.gauge("tcp.pending_replies", self._pending_count())
        return handle

    def stats(self) -> dict:
        """Transport counters of this connection."""
        depths = socket_queue_depths(self._sock) if self._alive else {
            "send_queue": 0, "recv_queue": 0,
        }
        telemetry.gauge("tcp.send_queue_bytes", depths["send_queue"])
        telemetry.gauge("tcp.recv_queue_bytes", depths["recv_queue"])
        return {
            "backend": self.name,
            "address": f"{self.address[0]}:{self.address[1]}",
            "invokes_posted": self.invokes_posted,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "inflight": self.inflight_count,
            "inflight_limit": self.window.limit,
            "pending_replies": self._pending_count(),
            "send_queue_bytes": depths["send_queue"],
            "recv_queue_bytes": depths["recv_queue"],
            # The channel runs on the shared reactor: no per-connection
            # receiver thread exists (introspection asserts this).
            "receiver_threads": 0,
            "reactor": self._reactor.stats(),
            "batch": (
                self._coalescer.stats() if self._coalescer is not None else None
            ),
        }

    def introspect_target(
        self, timeout: float | None = None
    ) -> dict[str, Any]:
        """Ask the target for its live state (``OP_INTROSPECT``).

        Returns the transport-agnostic introspection dict — worker-pool
        depth, executed-message count, live buffer count, ring cursors
        (``None`` on TCP). Raises the usual transport errors when the
        target is gone or predates the op.
        """
        payload = pickle.loads(self._roundtrip(OP_INTROSPECT, timeout=timeout))
        if not isinstance(payload, dict):
            raise BackendError(
                f"malformed introspection reply: {type(payload).__name__}"
            )
        return payload

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        if handle.completed:
            return
        self._check_alive()
        # A waiter implies latency-bound traffic: anything coalescing
        # (possibly this very handle's frame) goes out now rather than
        # at the batching deadline.
        if self._coalescer is not None:
            self._coalescer.flush("drive")
        if not blocking:
            # The reactor completes handles; nothing to pump here.
            return
        effective = timeout if timeout is not None else self.op_timeout
        if not handle.wait_event(effective):
            raise OffloadTimeoutError(
                f"no reply from {self.address[0]}:{self.address[1]} "
                "within the deadline"
            )

    # -- memory ----------------------------------------------------------------------
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self.check_target(node)
        return _U64.unpack(self._roundtrip(OP_ALLOC, _U64.pack(nbytes)))[0]

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self.check_target(node)
        self._roundtrip(OP_FREE, _U64.pack(addr))

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        self.check_target(node)
        # Vectored send: the payload rides as its own buffer, no copy.
        self._roundtrip(OP_WRITE, _U64.pack(addr), data)

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self.check_target(node)
        return bytes(self._roundtrip(OP_READ, _U64.pack(addr) + _U64.pack(nbytes)))

    # -- telemetry ----------------------------------------------------------------------
    def fetch_target_telemetry(
        self, timeout: float | None = None, align: bool = True
    ) -> list:
        """Pull (and clear) the target server's telemetry records.

        Returns :class:`~repro.telemetry.recorder.SpanRecord` /
        :class:`~repro.telemetry.recorder.EventRecord` objects recorded
        in the server process — empty if telemetry is disabled there.
        Servers forked via :func:`spawn_local_server` inherit the
        client's enabled state, so enabling telemetry *before* spawning
        captures target-side ``offload.execute`` spans too.

        With ``align`` (the default) the clock offset is re-estimated
        right before the pull and applied to the fetched timestamps, so
        the records land on the host's ``perf_counter_ns`` timeline. On
        a same-machine server the monotonic clock is shared and the
        offset is near zero; across machines it is essential.
        ``timeout`` bounds the pull round trip (falls back to
        :attr:`op_timeout`).
        """
        if align:
            self.clock_sync = self._estimate_clock(rounds=4, timeout=timeout)
        rows = pickle.loads(self._roundtrip(OP_TELEMETRY, timeout=timeout))
        records = dicts_to_records(rows)
        if align and self.clock_sync.offset_ns:
            records = align_records(records, self.clock_sync.offset_ns)
        return records

    # -- health -------------------------------------------------------------------------
    def ping(self, node: NodeId) -> float:
        """Round-trip an ``OP_PING`` heartbeat; returns wall seconds."""
        self.check_target(node)
        start = time.monotonic()
        self._roundtrip(OP_PING)
        return time.monotonic() - start

    def set_default_timeout(self, seconds: float | None) -> None:
        self.op_timeout = seconds

    # -- lifecycle ----------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._alive and self._coalescer is not None:
            # Drain the coalescing buffer before the shutdown exchange:
            # a half-flushed batch must reach the wire (and its replies
            # arrive, drained by the server ahead of the shutdown ack)
            # rather than being stranded.
            try:
                self._coalescer.flush("shutdown")
            except BackendError:
                pass  # transmit failed; _fail_pending already ran
        if self._alive:
            try:
                # The server acknowledges only once nothing executes or
                # waits in its backlog, so outstanding invoke replies arrive
                # (and complete their handles) ahead of this reply.
                self._roundtrip(
                    OP_SHUTDOWN, timeout=self.op_timeout or 10.0
                )
            except (BackendError, OffloadTimeoutError, RemoteExecutionError):
                pass  # server already gone or wedged
        self._closing = True
        self._alive = False
        # Anything still expected or buffered can never complete now;
        # fail it (with the queued-bytes detail) instead of stranding
        # waiters on a closed connection.
        pending_frames = (
            self._coalescer.pending()[0] if self._coalescer is not None else 0
        )
        if self._pending_count() or pending_frames:
            self._fail_pending(
                BackendError("tcp backend shut down with operations outstanding")
            )
        self._teardown_io()
        if self._on_shutdown is not None:
            self._on_shutdown()

    def _check_alive(self) -> None:
        if not self._alive:
            raise BackendError("tcp backend is shut down")
