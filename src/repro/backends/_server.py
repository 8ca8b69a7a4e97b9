"""The frame grammar and the target-side server, for the shm and tcp transports.

A frame is ``length:u32 | op:u8 | corr:u64 | body`` whichever pipe
carries it (docs/protocols.md, "Real-path frames"). This module is the
only one that knows that: the op table, the prefix every frame is
packed with, the one length check (:func:`check_frame_length`, made by
the shm ring's take, and inline by tcp's stream decoder,
:class:`FrameParser`, which calls it only to refuse a length).
Everything behind the pipe is one class: the inline memory/control ops,
running an invocation, failure replies, introspection — and the
**dispatch loop** that serves them. A transport supplies two hooks,
*take one frame* and *publish one frame* (:class:`FramedServer`).

The paper's VE loop polls the flag, runs the active-message handler
*itself* and stores the result back (Sec. IV-B). This is that loop, on
the one thread that serves: it takes a request, executes an
``OP_INVOKE`` on its own stack, publishes the reply and takes the next
one — no queue, no lock, no second thread. Memory and control
operations are answered inline, so every request is answered in
arrival order, and a long kernel delays whatever arrives behind it,
``OP_PING`` and ``OP_INTROSPECT`` included, as on the VE. Kernels
overlap only across targets.

Replies to one burst of requests leave in one write: an invocation's
reply is held while more requests were waiting when it was taken, and
what is held is sent before the loop waits for more (``_reply``).
"""

from __future__ import annotations

import os
import struct
import sys
from typing import Any

from repro.backends._target_memory import HostedBuffers
from repro.errors import BackendError
from repro.ham.execution import execute_message, failure_info
from repro.ham.registry import Catalog, ProcessImage
from repro.ham.serialization import serialize
from repro.offload.buffer import BufferPtr
from repro.telemetry import flightrecorder

OP_INVOKE = 0x01
OP_ALLOC = 0x02
OP_FREE = 0x03
OP_WRITE = 0x04
OP_READ = 0x05
OP_SHUTDOWN = 0x06
OP_PING = 0x07
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


def check_frame_length(length: int, limit: int) -> None:
    """Refuse a frame ``length`` outside ``[9, limit - 4]``: too short to
    hold its own header, or longer than the ``limit`` bytes (its length
    prefix included) its pipe can hold — tcp's
    :data:`~repro.backends.tcp.FRAME_LIMIT`, or what an shm ring holds
    published. The one length check, made by the ring's take; the one
    home of its refusals, which :class:`FrameParser` compares inline and
    calls only to raise."""
    if length < _FRAME_META or length > limit - _LEN.size:
        raise BackendError(
            f"{'short' if length < _FRAME_META else 'long'} frame: length "
            f"{length} outside [{_FRAME_META}, {limit - _LEN.size}] — a "
            "corrupt frame, or a peer that speaks another protocol"
        )


class FrameParser:
    """tcp's stream decoder, for both ends.

    It reads from a byte stream with ``recv(n)`` (up to ``n`` bytes,
    ``b""`` at EOF) and ``recv_into(view)``: a stream socket. A stream
    may cut a frame anywhere, so the parser keeps what arrived of one.
    :meth:`fill` is one ``recv`` (a reader calls it once the source has
    bytes); :meth:`next_frame` hands out every complete frame it carried
    as a view into the received chunk — no per-frame buffer or copy. A
    frame longer than :data:`_RECV_CHUNK` is received into a buffer of
    its own, so bulk payloads are copied at most once. ``limit`` is the
    most bytes one frame may fill, its length prefix included; a longer
    frame is refused from its length alone (compared inline, refused by
    :func:`check_frame_length`), before anything is allocated for it.
    """

    def __init__(self, source: Any, limit: int) -> None:
        self._source = source
        self.limit = limit
        #: The longest frame ``length`` it takes.
        self._longest = limit - _LEN.size
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

    def next_frame(self) -> tuple[int, int, memoryview, bool] | None:
        """The next complete ``(op, corr, body, more)``, or ``None`` when
        more bytes are needed; ``more``: bytes of another frame are in
        hand. Raises :class:`BackendError` on a length
        :func:`check_frame_length` refuses."""
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
            return (big[0], _U64.unpack_from(big, 1)[0],
                    memoryview(big)[_FRAME_META:], False)
        (length,) = _LEN.unpack_from(data, pos)
        if not _FRAME_META <= length <= self._longest:  # compared inline:
            check_frame_length(length, self.limit)  # a call only to raise
        end = pos + _LEN.size + length
        if end > size:
            if length > _RECV_CHUNK:
                self._big = big = bytearray(length)
                self._big_got = have - _LEN.size
                big[: self._big_got] = data[pos + _LEN.size:]
                self._data = b""
                self._pos = 0
            return None
        more = end != size
        if more:
            self._pos = end
        else:
            self._data = b""
            self._pos = 0
        return (
            data[pos + _LEN.size],
            _U64.unpack_from(data, pos + _LEN.size + 1)[0],
            memoryview(data)[pos + FRAME_OVERHEAD:end],
            more,
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


class FramedServer:
    """One client, served on one thread, over any pipe of frames.

    A transport supplies ``_frame_limit``, the most bytes one frame may
    fill on its pipe, and the two hooks of that pipe:

    * ``_take()`` — the next request, ``(op, corr, body, more)``,
      waiting as long as it takes; ``more``: another request was
      already waiting. Raises :class:`BackendError` once the client is
      gone or the pipe is corrupt;
    * ``_publish(op, corr, *parts)`` — frame one reply and send it now;
      and ``_transmit(frames, nbytes)``, the same for replies held,
      framed already.
    """

    #: "tcp" / "shm": names the image.
    transport = ""
    #: What ``_reply`` raises when nobody is left to reply to.
    _CLIENT_GONE: tuple[type[BaseException], ...] = ()

    def __init__(self, catalog: Catalog | None) -> None:
        self.image = ProcessImage(f"{self.transport}-target", catalog)
        self.buffers = HostedBuffers()
        self.messages_executed = 0
        #: The catalog is frozen once serving starts; hashing it per
        #: PING would dominate the heartbeat RTT.
        self._digest: bytes | None = None
        #: The parts of the framed replies held back while more requests
        #: wait (joined into one buffer when sent: a scatter-gather write
        #: takes at most ``IOV_MAX`` parts), their byte count, and its
        #: bound, fixed when serving starts (:meth:`_serve`).
        self._held: list[Any] = []
        self._held_bytes = 0
        self._hold_limit = 0
        #: The ``more`` of the request being served: another request was
        #: waiting when it was taken.
        self._more = False
        #: Why the loop ended (``None`` while serving).
        self.stopped: str | None = None

    # -- the reply side ------------------------------------------------------------
    def _reply(self, op: int, corr: int, *parts: Any) -> None:
        """Send one reply, behind every reply held.

        An invocation's reply is held instead while more requests were
        waiting when it was taken, up to :attr:`_hold_limit` bytes in
        all: the requests of one burst are answered in one write (a
        depth-1 request has none behind it, so its reply is published at
        once). Any other reply — an inline op's, a failure — takes the
        held ones with it.
        """
        held = self._held
        hold = op == _INVOKE_REPLY and self._more
        if not (hold or held):
            self._publish(op, corr, *parts)
            return
        length = _FRAME_META + sum(map(len, parts))
        nbytes = _LEN.size + length
        frame = [_PREFIX.pack(length, op, corr), *parts]
        held_bytes = self._held_bytes
        if hold and held_bytes + nbytes <= self._hold_limit:
            held += frame
            self._held_bytes += nbytes
            return
        self._held, self._held_bytes = [], 0
        if not held:
            self._transmit(frame, nbytes)
        elif held_bytes + nbytes <= self._frame_limit:
            self._transmit([b"".join(held), *frame], held_bytes + nbytes)
        else:  # too long to ride along: the held ones go first
            self._transmit([b"".join(held)], held_bytes)
            self._transmit(frame, nbytes)

    def _flush(self) -> None:
        """Send the held replies, in one write."""
        held, nbytes = self._held, self._held_bytes
        if not held:
            return
        self._held, self._held_bytes = [], 0
        try:
            self._transmit([b"".join(held)], nbytes)
        except self._CLIENT_GONE:
            pass  # the next take finds the client gone

    # -- the dispatch loop ----------------------------------------------------
    def _serve(self) -> None:
        """Serve on the calling thread until ``OP_SHUTDOWN`` has been
        acknowledged, or until the take finds the client gone or the
        pipe corrupt (:attr:`stopped` says which)."""
        # A held burst never outgrows one receive, nor half a frame.
        self._hold_limit = min(_RECV_CHUNK, self._frame_limit // 2)
        take = self._take
        image, resolve = self.image, self._resolve
        more = False
        try:
            while True:
                if self._held and not more:
                    self._flush()  # the burst is in: its replies leave now
                op, corr, body, more = take()
                self._more = more
                if op == OP_INVOKE:
                    try:
                        result, _keep = execute_message(image, body, resolve)
                        # A message refused as malformed is not counted.
                        self.messages_executed += 1
                        self._reply(_INVOKE_REPLY, corr, result)
                    except Exception as exc:  # noqa: BLE001 - shipped to the client
                        self._send_failure(corr, exc)  # (dropped there if it has gone)
                elif op == OP_SHUTDOWN:
                    # The ack takes what is held along, ahead of itself:
                    # it is the last frame sent.
                    self._handle_inline(op, corr, body)
                    self.stopped = "shutdown"
                    return
                else:
                    self._handle_inline(op, corr, body)
        except BackendError as exc:
            # Client gone or pipe corrupt: leave a cause to read.
            self.stopped = str(exc) or type(exc).__name__
            flightrecorder.note(
                "target.stopped", transport=self.transport, reason=self.stopped
            )
            print(
                f"{self.transport} target (pid {os.getpid()}) stopped "
                f"serving: {exc}", file=sys.stderr, flush=True,
            )

    # -- serving one frame ----------------------------------------------------
    def _send_failure(self, corr: int, exc: BaseException) -> None:
        try:
            self._reply(OP_FAILURE, corr, serialize(failure_info(exc)))
        except self._CLIENT_GONE:
            pass

    def _handle_inline(self, op: int, corr: int, body: memoryview) -> None:
        """Answer one memory/control op, in arrival order."""
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
                (addr,) = _U64.unpack_from(body)
                self.buffers.write(addr, memoryview(body)[8:])  # no copy
                self._reply(OP_WRITE | OP_REPLY_BIT, corr, b"")
            elif op == OP_READ:
                (addr,) = _U64.unpack(body[:8])
                (nbytes,) = _U64.unpack(body[8:16])
                self._reply(
                    OP_READ | OP_REPLY_BIT, corr, self.buffers.read(addr, nbytes)
                )
            elif op == OP_INTROSPECT:
                self._reply(
                    OP_INTROSPECT | OP_REPLY_BIT, corr, serialize(self.introspect())
                )
            elif op == OP_SHUTDOWN:  # the held replies ride ahead of the ack
                self._reply(OP_SHUTDOWN | OP_REPLY_BIT, corr, b"")
            else:
                raise BackendError(f"unknown op {op:#x}")
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self._send_failure(corr, exc)  # (dropped there if it has gone)

    def introspect(self) -> dict[str, Any]:
        """Live target state, in the transport-agnostic introspection shape.

        Every target answers ``OP_INTROSPECT`` with this same dict layout
        so host-side tooling (``offload.introspect()``) needs no
        per-transport cases. ``rings`` is ``None`` for stream
        transports; the shm target fills it in. It is answered between
        two requests, so nothing is executing then.
        """
        return {
            "role": "target",
            "transport": self.transport,
            "pid": os.getpid(),
            "messages_executed": self.messages_executed,
            "live_buffers": self.buffers.live_count,
            "rings": None,
        }

    def _resolve(self, arg: Any) -> Any:
        if isinstance(arg, BufferPtr):
            return self.buffers.view(arg)
        return arg
