"""The host-side client shared by the shm and tcp transports.

The mirror of :mod:`repro.backends._server`: both transports carry the
same frames, so everything the host does that is not moving them is one
class — the correlation table replies are matched through, posting an
invocation, the synchronous roundtrip under every memory and control op
and under a sync's invoke, the catalog handshake, the introspection
pull, failing what a lost transport strands, and shutdown. A transport
supplies two hooks, *publish one frame* and *take one frame*
(:class:`FramedClient`).

It is also the one *drive*. The paper's receiver polls for its message
itself (Sec. IV-B) and HAM's backends have no progress thread; here the
caller that waits for a reply reads it: it takes the drive lock, takes
frames off the pipe (``_next_frame``) and completes every reply that
arrives, its own and everybody else's (leader/follower). An
asyncio loop that awaits a reply is a waiter too: it polls through
``drive(blocking=False)`` (:class:`~repro.offload.future.AwaitingLoop`).
No thread owns the receive side, so a depth-1 offload costs the host one
timeslice and builds no ``threading.Event``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.backends._server import (
    _U64,
    FRAME_OVERHEAD,
    OP_ALLOC,
    OP_FAILURE,
    OP_FREE,
    OP_INTROSPECT,
    OP_INVOKE,
    OP_PING,
    OP_READ,
    OP_REPLY_BIT,
    OP_SHUTDOWN,
    OP_WRITE,
)
from repro.backends.base import Backend, InvokeHandle
from repro.errors import (
    BackendError,
    OffloadTimeoutError,
    RemoteExecutionError,
    SerializationError,
)
from repro.ham.execution import remote_error, sized_invoke_parts, unpack_result
from repro.ham.functor import Functor
from repro.ham.message import read_scalar_result
from repro.ham.registry import Catalog, ProcessImage
from repro.ham.serialization import deserialize
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import ENQUEUE, REPLY, TRANSPORT, OffloadTrace


def byte_view(part: Any) -> Any:
    """A flat byte-level view of one frame part (zero-copy): frames are
    sized with ``len``, and 16 doubles are 128 bytes, not 16."""
    if isinstance(part, (bytes, bytearray)):
        return part
    view = memoryview(part)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


def remote_failure(body: Any) -> RemoteExecutionError | SerializationError:
    """The exception an ``OP_FAILURE`` reply carries — or, for a body
    that is no failure info, the refusal (returned, not raised: the
    caller must still complete whoever waits for this reply)."""
    try:
        return remote_error(deserialize(body))
    except SerializationError as exc:
        return exc


def _wrong_reply(expected: int, op: int) -> BackendError:
    return BackendError(f"expected reply to op {expected:#x}, got {op:#x}")


class FramedClient(Backend):
    """One target behind any pipe of frames: the host side of the channel.

    A transport supplies ``peer``, ``_frame_limit`` (the most bytes one
    frame may fill), the two hooks of its pipe

    * ``_send(op, corr, *parts)`` — *publish one frame*: frame the
      byte-sized ``parts`` as one request and put it on the pipe now,
      behind everything sent before it; on a lost transport call
      :meth:`_fail_pending` and raise :class:`BackendError`.
      ``_post_frame`` is the same for ``OP_INVOKE`` frames, which a
      stream transport may batch and then sends before anybody waits
      for their replies;
    * ``_next_frame(timeout)`` — *take one frame*, drive lock held: the
      next reply, ``(op, corr, body, more)``, waiting up to ``timeout``
      seconds for it (``0``: only what has arrived, ``None``: as long as
      it takes), ``None`` when the time ran out; ``more``: another
      reply is in hand already. Raises :class:`BackendError` once the
      peer is lost;

    and

    * ``_reply_fd()`` — optionally, a descriptor an awaiting asyncio loop
      watches instead of polling (tcp's socket);
    * ``_detach()`` — release what only a live transport holds
      (idempotent, any thread); a buffering transport also reports what
      it had not sent yet through ``_drop_unsent``;
    * ``_close_transport()`` — release what is left once ``on_shutdown``
      has joined the target (defaults to ``_detach``).

    It completes every frame ``_next_frame`` returns through
    :meth:`_dispatch_reply`, calls :meth:`_fail_pending` when the peer
    is lost, and ends its constructor with :meth:`_handshake`.
    """

    #: "tcp" / "shm": names the image, the metrics and the error texts.
    name = ""
    #: No thread receives: replies are read by whoever waits for one.
    driven = True
    #: How descriptors, errors and crash bundles name the target, and
    #: what that is ("address" / "segment") to the flight recorder.
    peer = ""
    _peer_kind = "peer"

    def __init__(
        self,
        catalog: Catalog | None,
        on_shutdown: Callable[[], None] | None,
        op_timeout: float | None,
    ) -> None:
        self.host_image = ProcessImage(f"{self.name}-host", catalog)
        self._on_shutdown = on_shutdown
        self.op_timeout = op_timeout
        #: Correlation id -> (the op its reply answers, the handle it
        #: completes): an invoke's, or a roundtrip's that waits behind
        #: another reader or outlived its deadline.
        self._pending: dict[int, tuple[int, InvokeHandle]] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: Held by whoever reads replies (the leader/follower gate).
        #: Reentrant: a sender stalled on a full transport drains replies
        #: even when it is itself the leader (``_send_stall``).
        self._drive_lock = threading.RLock()
        self.loop_polls = 0
        self._msg_id = 0
        self._alive = True
        self._closed = False
        self._closing = False
        self.invokes_posted = 0

    # -- what a transport supplies -------------------------------------------
    def _detach(self) -> None:
        """Release what only a live transport holds (idempotent)."""

    def _drop_unsent(self) -> tuple[int, int]:
        """Drop frames buffered for send; ``(frames, bytes)`` dropped."""
        return 0, 0

    def _close_transport(self) -> None:
        self._detach()

    # -- connect ---------------------------------------------------------------
    def _handshake(self, timeout: float) -> None:
        """Fetch the server's catalog digest and compare, to fail fast
        when host and target registered different offloadable sets. (An
        empty body asks without asserting, so the comparison happens
        client-side with a precise error.)"""
        try:
            server_digest = self._roundtrip(OP_PING, timeout=timeout)
            if server_digest and bytes(server_digest) != self.host_image.digest():
                raise BackendError(
                    "offloadable catalogs differ between host and target "
                    "(both sides must import the same application modules)"
                )
        except BaseException:
            self._closing = True
            self._alive = False
            self._close_transport()
            raise

    # -- topology --------------------------------------------------------------
    def num_nodes(self) -> int:
        return 2

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", f"{self.name} backend host")
        self.check_target(node)
        return NodeDescriptor(
            node, f"{self.name}:{self.peer}", "cpu", f"{self.name} target"
        )

    # -- the correlation table ---------------------------------------------------
    def _pending_count(self) -> int:
        return len(self._pending)  # one atomic read: no lock to take

    def _check_alive(self) -> None:
        if not self._alive:
            raise BackendError(f"{self.name} backend is shut down")

    def _dispatch_reply(self, op: int, corr: int, body: Any) -> None:
        """Complete the expectation filed under ``corr`` (any order).

        Telemetry phase ``offload.reply``: the reply of a traced
        offload, read by anyone, is stamped into the record its handle
        carries. No other frame records anything: a control op's reply,
        an untraced offload's or a stray."""
        with self._pending_lock:
            entry = self._pending.pop(corr, None)
        if entry is None:
            # A reply nothing waits for: its expectation was already
            # failed, or the peer invented a correlation id. Either way
            # the stream itself stays consistent — count and move on.
            telemetry.count(f"{self.name}.unmatched_replies")
            return
        expected, handle = entry
        if handle.trace is not None:
            handle.trace.stamp_reply(self.name, len(body) + FRAME_OVERHEAD)
        if op == expected | OP_REPLY_BIT:
            handle.complete_with_reply(body)
        elif op == OP_FAILURE:
            handle.complete_with_error(remote_failure(body))
        else:
            handle.complete_with_error(_wrong_reply(expected, op))

    def _fail_pending(self, error: BaseException) -> None:
        """Declare the transport lost: mark dead, fail every expectation.

        A receive error, EOF or dead peer means no outstanding operation
        can ever be matched again — they all inherit ``error`` instead
        of hanging. Frames still buffered for send can never be
        delivered either: they are dropped and the queued byte count is
        folded into the error every waiter sees.
        """
        frames, queued = self._drop_unsent()
        if frames:
            error = BackendError(
                f"{error}; dropped {frames} coalesced frame"
                f"{'s' if frames != 1 else ''} ({queued} bytes) still "
                "queued for send"
            )
        with self._pending_lock:
            # Several threads can see one loss (a failed send, the
            # leader's EOF, a stalled sender): the first declares it.
            first, self._alive = self._alive, False
            orphans = [handle for _op, handle in self._pending.values()]
            self._pending.clear()
        if first and not (self._closing or self._closed):
            # Unplanned loss is exactly what the flight recorder exists
            # for: capture the last few seconds of events before the
            # failure cascades through retries and failover. A close
            # initiated by shutdown() records nothing (the receiver may
            # see the server's EOF before shutdown() flips _closing).
            flightrecorder.trigger(
                "peer_death",
                force=True,  # rare + catastrophic: never debounced away
                transport=self.name,
                **{self._peer_kind: self.peer},
                orphaned=len(orphans),
                error=str(error),
            )
        for handle in orphans:
            handle.complete_with_error(error)
        self._detach()

    # -- synchronous operations --------------------------------------------------
    def _roundtrip(
        self, op: int, *parts: Any, timeout: float | None = None,
        label: str = "", trace: OffloadTrace | None = None,
    ) -> memoryview:
        """Synchronous request: send, then wait for the matching reply.

        ``timeout`` (defaulting to :attr:`op_timeout`) bounds the whole
        roundtrip; on expiry an :class:`OffloadTimeoutError` is raised
        *softly* — a handle (named ``label``, or after the op) stays
        filed for the reply and rides on the error, so the stream is not
        poisoned and a late reply is matched, not counted as a stray.

        A caller that gets the drive lock *before* it sends is the
        leader: nobody else can consume its reply, so it files nothing
        and reads until its own correlation id comes by
        (:meth:`_consume_inline`); behind another reader it files a
        handle and follows. A traced invoke (``trace``, its record) is
        stamped with the phases of a posted one: ``offload.enqueue``,
        ``offload.transport`` and, inside it, ``offload.reply``.
        """
        if not self._alive:  # _check_alive(), inline
            raise BackendError(f"{self.name} backend is shut down")
        effective = timeout if timeout is not None else self.op_timeout
        if self._drive_lock.acquire(blocking=False):
            try:
                # Files no handle, but draws from the handles' counter:
                # ids never collide across the two kinds of traffic.
                corr = next(InvokeHandle._ids)
                if trace is None:  # the hot path: nothing between send and read
                    self._send(op, corr, *parts)
                    return self._consume_inline(op, corr, effective, label)
                return self._traced_roundtrip(op, corr, parts, effective, label, trace)
            finally:
                self._drive_lock.release()
        handle = InvokeHandle(self, label or f"op {op:#x}")
        if trace is None:
            self._expect(op, handle, self._send, parts)
            if not handle.completed:
                self._wait(handle, effective)
        else:
            handle.trace = trace
            trace.corr = handle.correlation_id
            stack = trace.stack
            trace.run(ENQUEUE, stack, self._expect, op, handle, self._send, parts)
            trace.run(TRANSPORT, stack, self._follow, handle, effective)
        if handle._error is not None:
            raise handle._error
        return handle._reply

    def _traced_roundtrip(
        self, op: int, corr: int, parts: Any, timeout: float | None,
        label: str, trace: OffloadTrace,
    ) -> memoryview:
        """The leader's send and read of a traced invoke, stamped as
        phases ``offload.enqueue`` then ``offload.transport``: one clock
        reading ends the one and starts the other (``OffloadTrace.run``
        twice, written out)."""
        trace.corr = corr
        stack, clock, starts = trace.stack, trace.clock, trace.starts
        span_id = trace.span_id
        phase = ENQUEUE
        starts[ENQUEUE] = clock()
        stack.append(span_id + ENQUEUE)
        try:
            self._send(op, corr, *parts)
            trace.ends[ENQUEUE] = starts[TRANSPORT] = clock()
            phase = TRANSPORT
            stack[-1] = span_id + TRANSPORT
            body = self._consume_inline(op, corr, timeout, label, trace)
        except BaseException as exc:
            stack.pop()
            trace.failed(phase, exc)
            raise
        stack.pop()
        trace.ends[TRANSPORT] = clock()
        return body

    def _consume_inline(
        self, op: int, corr: int, timeout: float | None, label: str,
        trace: OffloadTrace | None = None,
    ) -> Any:
        """Drive lock held: take frames until ``corr``'s reply, returned
        directly.

        Replies for other callers are dispatched through the expectation
        table on the way; its own reply is stamped into ``trace``, a
        traced invoke's record. A timeout is soft, like :meth:`_wait`: a
        handle is filed under ``corr`` *now* (no reply can have slipped
        past — this thread held the drive lock throughout) so a later
        pump can still complete it instead of counting it unmatched.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    handle = InvokeHandle(self, label or f"op {op:#x}", corr)
                    with self._pending_lock:
                        self._pending[corr] = (op, handle)
                    raise self._no_reply(handle)
            try:
                frame = self._next_frame(wait)
                if frame is None:
                    continue
                reply_op, reply_corr, body, more = frame
                if reply_corr != corr:
                    self._dispatch_reply(reply_op, reply_corr, body)
                    continue
                if trace is not None:
                    # trace.stamp_reply(...), written out.
                    trace.starts[REPLY] = trace.clock()
                    trace.transport = self.name
                    trace.reply_bytes = len(body) + FRAME_OVERHEAD
                    trace.ends[REPLY] = trace.clock()
                # Its own: first complete the replies already in hand — a
                # loop watching ``_reply_fd`` wakes on new bytes only,
                # and a follower would sleep out its slice.
                while more:
                    held = self._next_frame(0.0)
                    if held is None:  # part of a frame
                        break
                    held_op, held_corr, held_body, more = held
                    self._dispatch_reply(held_op, held_corr, held_body)
            except BackendError as exc:
                if not self._closing:
                    self._fail_pending(exc)
                raise
            if reply_op == op | OP_REPLY_BIT:
                return body
            if reply_op == OP_FAILURE:
                raise remote_failure(body)
            raise _wrong_reply(op, reply_op)

    def _expect(
        self,
        op: int,
        handle: InvokeHandle,
        send: Callable[..., None],
        parts: Any,
    ) -> None:
        """File ``handle`` for the reply to ``op``, then ``send`` its frame
        (unfiled again if that raises)."""
        corr = handle.correlation_id
        with self._pending_lock:
            self._pending[corr] = (op, handle)
        try:
            send(op, corr, *parts)
        except BaseException:
            with self._pending_lock:
                self._pending.pop(corr, None)
            raise
        # The transport may have been declared lost between the
        # aliveness check and our filing; a handle filed after that
        # drain would wait forever, so fail it here ourselves.
        if not self._alive:
            with self._pending_lock:
                entry = self._pending.pop(corr, None)
            if entry is not None:
                handle.complete_with_error(
                    BackendError(f"{self.name} transport lost while posting")
                )

    # -- invocation --------------------------------------------------------------
    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        if not self._alive:  # _check_alive(), inline
            raise BackendError(f"{self.name} backend is shut down")
        if node != 1:  # check_target(), inline: the one target is node 1
            self.check_target(node)
        self._msg_id += 1
        parts, trace = sized_invoke_parts(self.host_image, functor, self._msg_id)
        handle = InvokeHandle(self, label=functor.type_name)
        if trace is None:
            self._expect(OP_INVOKE, handle, self._post_frame, parts)
        else:
            # Telemetry phase ``offload.enqueue``: filing the reply
            # expectation and handing the frame to the transport.
            handle.trace = trace
            trace.corr = handle.correlation_id
            trace.run(ENQUEUE, trace.stack, self._expect, OP_INVOKE, handle,
                      self._post_frame, parts)
        self.invokes_posted += 1
        return handle

    def sync_invoke(
        self, node: NodeId, functor: Functor, timeout: float | None = None
    ) -> Any:
        """:meth:`post_invoke` and the value of its reply in one call: an
        ``OP_INVOKE`` roundtrip, read by the caller."""
        if node != 1:  # check_target(), inline: the one target is node 1
            self.check_target(node)
        self._msg_id += 1
        parts, trace = sized_invoke_parts(self.host_image, functor, self._msg_id)
        self.invokes_posted += 1
        body = self._roundtrip(
            OP_INVOKE, *parts, timeout=timeout, label=functor.type_name,
            trace=trace,
        )
        if trace is None:
            scalar = read_scalar_result(body)  # one unpack, as a rule
            if scalar is not None:
                return scalar[1]
        return unpack_result(body, trace)[1]

    # -- the drive ---------------------------------------------------------------
    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        if handle.completed:
            return
        if not self._alive:  # _check_alive(), inline
            raise BackendError(f"{self.name} backend is shut down")
        if not blocking:
            self._poll()
            return
        self._wait(handle, timeout if timeout is not None else self.op_timeout)

    def _no_reply(self, handle: InvokeHandle) -> OffloadTimeoutError:
        """A soft timeout: ``handle`` stays filed and rides on the error."""
        error = OffloadTimeoutError(
            f"no reply from {self.name} {self._peer_kind} {self.peer} "
            f"within the deadline ({handle.label})"
        )
        error.handle = handle
        return error

    def _poll(self) -> None:
        """Progress that needs no waiting: complete what has arrived —
        unless a leader holds the drive lock, who does that anyway."""
        if self._drive_lock.acquire(blocking=False):
            try:
                self._pump(0.0)
            finally:
                self._drive_lock.release()

    def _pump(self, wait: float) -> None:
        """Drive lock held: wait up to ``wait`` for a reply, then
        complete every one that has arrived, whoever it is for.

        A lost peer fails everything outstanding (which wakes the
        followers) instead of raising — each waiter then finds its own
        sink failed.
        """
        try:
            frame = self._next_frame(wait)
            while frame is not None:
                op, corr, body, _more = frame
                self._dispatch_reply(op, corr, body)
                frame = self._next_frame(0.0)
        except BackendError as exc:
            if not self._closing:
                self._fail_pending(exc)

    def _follow(self, handle: InvokeHandle, timeout: float | None) -> None:
        """A follower's wait for ``handle``, which may have completed
        already (a traced one stamps its transport phase either way)."""
        if not handle.completed:
            self._wait(handle, timeout)

    def _wait(self, handle: InvokeHandle, timeout: float | None) -> None:
        """Read replies, or wait on the thread that does, until
        ``handle`` completes; the caller has just seen it not to.

        Whoever gets the drive lock is the leader and completes
        everybody's replies; the others sleep on their own completion
        (``handle.wait_event``) in slices and contend again, so one takes
        over within 5 ms of the leader leaving with its reply. Raises
        :class:`OffloadTimeoutError` after ``timeout`` seconds — softly,
        the handle stays filed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        lock = self._drive_lock
        pump_for = 0.05
        while True:
            if deadline is not None:
                pump_for = min(deadline - time.monotonic(), 0.05)
                if pump_for <= 0:
                    raise self._no_reply(handle)
            if lock.acquire(timeout=0.005):
                try:
                    if handle.completed:
                        return
                    self._pump(pump_for)
                finally:
                    lock.release()
            else:
                # A leader is reading; it completes us on arrival.
                handle.wait_event(0.002)
            if handle.completed:
                return
            if not self._alive:
                # Filed after the drain — nothing will ever match it.
                raise BackendError(
                    f"{self.name} transport lost while waiting for a reply"
                )

    # -- memory ------------------------------------------------------------------
    @property
    def _max_payload(self) -> int:
        """Most bulk bytes one WRITE/READ frame carries: half the frame
        limit, so a bulk transfer never deadlocks against a ring's own
        backpressure, and two chunks can overlap."""
        return self._frame_limit // 2 - 64

    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self.check_target(node)
        return _U64.unpack(self._roundtrip(OP_ALLOC, _U64.pack(nbytes)))[0]

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self.check_target(node)
        self._roundtrip(OP_FREE, _U64.pack(addr))

    def write_buffer(self, node: NodeId, addr: int, data: Any) -> None:
        self.check_target(node)
        # Callers pass buffers of any item size; frames count bytes. Each
        # chunk rides as its own part, never copied host-side, and lands
        # at addr + offset (HostedBuffers accepts addresses inside a live
        # allocation). No bytes still take one frame: the target checks
        # the address.
        view = byte_view(data)
        chunk = self._max_payload
        for offset in range(0, len(view) or 1, chunk):
            self._roundtrip(
                OP_WRITE, _U64.pack(addr + offset), view[offset : offset + chunk]
            )

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self.check_target(node)
        chunk = self._max_payload
        return b"".join([
            self._roundtrip(
                OP_READ, _U64.pack(addr + offset)
                + _U64.pack(min(chunk, nbytes - offset))
            )
            for offset in range(0, nbytes or 1, chunk)
        ])

    # -- introspection, health ----------------------------------------------------
    def introspect_target(
        self, timeout: float | None = None
    ) -> dict[str, Any]:
        """Ask the target for its live state (``OP_INTROSPECT``).

        Returns the transport-agnostic introspection dict — serving
        threads active, executed-message count, live buffer count, ring
        cursors (``None`` on TCP). Raises the usual transport errors
        when the target is gone or predates the op.
        """
        payload = deserialize(self._roundtrip(OP_INTROSPECT, timeout=timeout))
        if not isinstance(payload, dict):
            raise BackendError(
                f"malformed introspection reply: {type(payload).__name__}"
            )
        return payload

    def ping(self, node: NodeId) -> float:
        """Round-trip an ``OP_PING`` heartbeat; returns wall seconds."""
        self.check_target(node)
        start = time.monotonic()
        self._roundtrip(OP_PING)
        return time.monotonic() - start

    def set_default_timeout(self, seconds: float | None) -> None:
        self.op_timeout = seconds

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the target, fail stragglers, release the transport.

        Robust against an already-dead target: the SHUTDOWN roundtrip is
        skipped (or tolerated failing) and the transport is still
        closed, so no socket or ``/dev/shm`` entry outlives the backend
        either way.
        """
        if self._closed:
            return
        self._closed = True
        if self._alive:
            try:
                # Sent behind everything still buffered; the server
                # acknowledges only once nothing executes or waits in its
                # backlog, so outstanding invoke replies arrive (and
                # complete their handles) ahead of this reply.
                self._roundtrip(OP_SHUTDOWN, timeout=self.op_timeout or 10.0)
            except (BackendError, OffloadTimeoutError, RemoteExecutionError):
                pass  # server already gone or wedged
        self._closing = True
        # Anything still expected or buffered can never complete now;
        # fail it instead of stranding waiters on a closed transport.
        self._fail_pending(
            BackendError(
                f"{self.name} backend shut down with operations outstanding"
            )
        )
        if self._on_shutdown is not None:
            self._on_shutdown()  # the target is joined before its memory goes
        self._close_transport()
