"""TCP/IP communication backend — the pipelined channel transport.

The functional counterpart of the paper's generic TCP backend
("interoperability rather than performance", Sec. I-A): real sockets,
real processes, genuine asynchrony. The target runs
:class:`TcpTargetServer` — either spawned in a forked child via
:func:`spawn_local_server` (the fork inherits the application's
offloadable catalog, mirroring "build the same application for both
sides") or started manually on another machine.

The socket is a byte stream: the frame, the op table, which ops the
target runs inline, failure bodies and the one length check are
specified once, for tcp and shm alike, in docs/protocols.md, "Real-path
frames", and implemented once, in :mod:`repro.backends._server`. The
two hooks at each end here, publish one frame and take one frame, pack
the prefix in front of the parts for one ``sendmsg`` and feed ``recv``
to the stream decoder, :class:`~repro.backends._server.FrameParser`.

Every frame carries a **correlation id**; replies (including failure
replies) echo the request's id. The client matches replies through an
id-keyed table instead of a FIFO, so they may arrive in any order —
which is what lets the target execute invocations concurrently (the
dispatch loop of :mod:`repro.backends._server`) while memory
operations stay synchronous roundtrips. That table, and everything else
on the host side that is not moving bytes, is shared with shm:
:mod:`repro.backends._client` (docs/architecture.md, "Client core").

Frames leave with vectored I/O (``sendmsg``): large array payloads
travel as ``memoryview`` parts straight from the arrays' own storage,
never concatenated host-side. Small invoke frames take the
**coalescing path** instead (:class:`~repro.backends.base.FrameCoalescer`):
they accumulate into one ``sendmsg`` batch flushed on byte budget,
frame count, an idle pipeline, or when anyone sends a roundtrip or
waits for a reply (the sender arms no timer). A batch is just frames
back-to-back on the stream; both ends decode it with the one
:class:`~repro.backends._server.FrameParser`, many frames from one
``recv``.

There is **no receiver thread**, per connection or shared: the caller
that waits for a reply polls the socket and parses what arrives, for
everybody (the drive of :mod:`repro.backends._client`, shared with
shm); an asyncio loop awaiting a reply watches the socket
(``loop.add_reader``) and reads it the same way. A connection starts
no thread at all.
"""

from __future__ import annotations

import multiprocessing
import select
import socket
import struct
from typing import Any, Callable

from repro.backends._client import FramedClient
from repro.backends._server import (
    _FRAME_META,
    _LEN,
    _PREFIX,
    DEFAULT_SERVER_WORKERS,
    FrameParser,
    FramedServer,
    _eof_error,
)
from repro.backends.base import FrameCoalescer, InvokeHandle
from repro.errors import BackendError
from repro.ham.registry import Catalog
from repro.telemetry import recorder as telemetry

__all__ = ["FRAME_LIMIT", "TcpBackend", "TcpTargetServer", "spawn_local_server"]

#: The most bytes one tcp frame may fill, its length prefix included:
#: the limit of the parsers, and of the senders, on both ends.
FRAME_LIMIT = 64 << 20


def _check_frame(nbytes: int) -> None:
    """Refuse, before a byte is written, a frame the peer would refuse."""
    if nbytes > FRAME_LIMIT:
        raise BackendError(
            f"frame of {nbytes} bytes exceeds the tcp frame limit {FRAME_LIMIT}"
            " — stage bulk data through put/get"
        )


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

    Frames are served by the dispatch loop of
    :class:`~repro.backends._server.FramedServer`: the thread that reads
    an INVOKE executes it, replies on its own stack and goes on reading
    the socket. Another thread takes the socket over only when that
    pays — the previous invocation ran long, or the reader is stuck in
    this one — so up to ``workers`` independent offloads still
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

    def serve_forever(self) -> None:
        """Accept one client and serve requests until SHUTDOWN/EOF."""
        self._conn, _peer = self._listener.accept()
        try:
            with self._conn as conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._parser = FrameParser(conn, FRAME_LIMIT)
                self._serve()
        finally:
            self._listener.close()

    @property
    def _frame_limit(self) -> int:
        return self._parser.limit

    def _take(self) -> tuple[int, int, memoryview, bool]:
        """The next request off the socket, receiving as needed; the
        replies held for a burst leave before the reader blocks."""
        parser = self._parser
        frame = parser.next_frame() if parser._data else None
        while frame is None:
            if self._held:
                self._flush()
            try:
                received = parser.fill()
            except OSError as exc:
                raise BackendError(f"tcp receive failed: {exc}") from exc
            if not received:
                raise _eof_error(parser)
            frame = parser.next_frame()
        return frame

    def _publish(self, op: int, corr: int, *parts: Any) -> None:
        """Frame one reply and send it now (send lock held)."""
        length = _FRAME_META + sum(map(len, parts))
        self._transmit([_PREFIX.pack(length, op, corr), *parts], _LEN.size + length)

    def _transmit(self, frame: list, nbytes: int) -> None:
        _check_frame(nbytes)
        _sendmsg_all(self._conn, frame)


def _server_entry(
    port_pipe: Any, catalog: Catalog | None, workers: int
) -> None:
    telemetry.disable()  # the host's records and locks are not ours
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


class TcpBackend(FramedClient):
    """Client side of the TCP backend (one target).

    Replies are read by whoever waits for one
    (:class:`~repro.backends._client.FramedClient`): the receive half
    here polls the socket, and the parser takes frames off it
    incrementally, so a soft timeout never desynchronizes the stream — a
    partial frame stays in the parser and is matched when the rest of
    it arrives.

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
    """

    name = "tcp"
    _peer_kind = "address"

    def __init__(
        self,
        address: tuple[str, int],
        catalog: Catalog | None = None,
        on_shutdown: Callable[[], None] | None = None,
        *,
        op_timeout: float | None = None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(catalog, on_shutdown, op_timeout)
        self.address = address
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Inbound frame decoder and readiness poll, touched only under
        #: the drive lock. (A poll object owns no descriptor.)
        self._parser = FrameParser(self._sock, FRAME_LIMIT)
        self._poller = select.poll()
        self._poller.register(self._sock, select.POLLIN)
        self._coalescer = FrameCoalescer(
            transmit=self._transmit_batch, depth=self._pending_count
        )
        self._handshake(connect_timeout)

    @property
    def peer(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def _frame_limit(self) -> int:
        return self._parser.limit

    # -- how bytes leave ----------------------------------------------------------
    def _send(self, op: int, corr: int, *parts: Any) -> None:
        """Frame one request and send it now (:meth:`_transmit`)."""
        length = _FRAME_META + sum(map(len, parts))
        self._transmit([_PREFIX.pack(length, op, corr), *parts], _LEN.size + length)

    def _post_frame(self, op: int, corr: int, *parts: Any) -> None:
        """Frame one invoke request for :meth:`_post`, which may batch it."""
        length = _FRAME_META + sum(map(len, parts))
        self._post([_PREFIX.pack(length, op, corr), *parts], _LEN.size + length)

    def _transmit(self, frame: list, nbytes: int) -> None:
        """Send one frame now, flushing any coalesced frames first.

        The ordered path for synchronous operations and large
        payloads: everything buffered ahead of this frame goes out
        before it, so the stream never reorders around a roundtrip.
        """
        _check_frame(nbytes)
        self._coalescer.flush("sync")
        self._transmit_batch(frame)

    def _transmit_batch(self, parts: list[Any]) -> None:
        """One scatter-gather send (also the coalescer's sink). Socket
        failures are translated into :class:`BackendError`."""
        nbytes = sum(map(len, parts))
        try:
            with self._send_lock:
                _sendmsg_all(self._sock, parts)
        except OSError as exc:
            error = BackendError(f"tcp send failed: {exc}")
            self._fail_pending(error)
            raise error from exc
        self.bytes_sent += nbytes

    def _post(self, frame: list, nbytes: int) -> None:
        """Send or buffer one invoke frame (the coalescing path).

        Small frames are copied into the batch buffer — detaching them
        from caller-owned array storage, since the flush may happen
        after the caller has moved on — and ride the next
        ``sendmsg`` batch. Large frames keep the zero-copy
        scatter-gather path, flushing the buffer first so stream order
        is preserved.
        """
        coalescer = self._coalescer
        if nbytes >= coalescer.policy.max_bytes or nbytes > FRAME_LIMIT:
            self._transmit(frame, nbytes)  # (which refuses the latter)
            return
        coalescer.add([b"".join(frame)], nbytes)

    def _drop_unsent(self) -> tuple[int, int]:
        return self._coalescer.discard()

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        # Send what is held before waiting: anything coalescing
        # (possibly the very frame it waits behind) goes out now, or
        # nobody would send it.
        self._coalescer.flush("drive")
        super().drive(handle, blocking=blocking, timeout=timeout)

    # -- how bytes arrive -----------------------------------------------------------
    def _next_frame(
        self, timeout: float | None
    ) -> tuple[int, int, memoryview, bool] | None:
        """The next reply, polling the socket up to ``timeout`` for it;
        what arrived of a frame when the time runs out stays in the
        parser."""
        parser = self._parser
        # Only a parser holding unparsed bytes is asked: between the
        # send and the poll for the reply runs an attribute test.
        frame = parser.next_frame() if parser._data else None
        while frame is None:
            if not self._await_bytes(timeout):
                return None
            try:
                received = parser.fill()
            except OSError as exc:
                raise BackendError(f"tcp receive failed: {exc}") from exc
            if not received:
                raise _eof_error(parser, self._pending_count())
            self.bytes_received += received
            frame = parser.next_frame()
            # Part of a frame: take what else is already here and leave
            # the rest of the deadline to the caller, who keeps it.
            timeout = 0.0
        return frame

    def _await_bytes(self, timeout: float | None) -> Any:
        """Poll the socket; truthy once it is readable (EOF included)."""
        if not self._alive:
            raise BackendError("tcp transport lost")
        return self._poller.poll(None if timeout is None else timeout * 1e3)

    def _reply_fd(self) -> int | None:
        """The socket: an awaited reply completes on arrival."""
        fd = self._sock.fileno()
        return fd if fd >= 0 else None

    # -- lifecycle ----------------------------------------------------------------------
    def _detach(self) -> None:
        """Close the socket — shut down first: ``close`` alone does not
        wake a leader in ``poll``. Idempotent; safe from any thread, a
        leader and an awaiting loop too."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, reset by the peer, or closed already
        self._sock.close()

    # -- introspection --------------------------------------------------------------------
    def stats(self) -> dict:
        """Transport counters of this connection."""
        depths = socket_queue_depths(self._sock) if self._alive else {
            "send_queue": 0, "recv_queue": 0,
        }
        return {
            "backend": self.name,
            "address": self.peer,
            "invokes_posted": self.invokes_posted,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "pending_replies": self._pending_count(),
            "send_queue_bytes": depths["send_queue"],
            "recv_queue_bytes": depths["recv_queue"],
            # No host thread wakes; perfbench's tcp.reactor_wakeups row reads it.
            "reactor": {"wakeups": 0},
            "batch": self._coalescer.stats(),
        }
