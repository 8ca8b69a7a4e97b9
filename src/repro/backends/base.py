"""Abstract communication backend — the pipelined **Channel** contract.

A backend connects the host process to one or more offload targets. The
runtime (:class:`repro.offload.runtime.Runtime`) delegates every remote
operation here; the backend owns transport, timing domain (wall clock or
simulated clock) and the target-side message loop.

Message-level contract (the *channel*):

* Every posted invocation carries a process-unique **correlation id**
  (:attr:`InvokeHandle.correlation_id`). Frames on the wire are tagged
  with it, replies echo it, and the backend matches replies through an
  id-keyed in-flight table — never by arrival order. Replies may
  therefore complete **out of order**, which is what lets independent
  offloads overlap on a pipelined transport.
* Backends are transports: they move frames and know nothing of flow
  control. In-flight invocations are bounded by the
  :class:`InflightWindow` of the :class:`~repro.offload.runtime.Runtime`
  that posts them (default :data:`DEFAULT_INFLIGHT_LIMIT`), so a runaway
  producer gets backpressure instead of unbounded queues; a bare
  ``post_invoke`` is not admitted by anything.
* Completion is **thread-safe**: :meth:`InvokeHandle.complete_with_reply`
  / :meth:`InvokeHandle.complete_with_error` may come from any thread —
  the waiter itself on a driven transport, another waiter leading the
  drive, an asyncio loop awaiting the reply
  (:class:`~repro.offload.future.AwaitingLoop`).

The target executes messages through
:func:`repro.ham.execution.execute_message` and returns reply bytes; the
backend matches replies to :class:`InvokeHandle` objects wrapped into
futures by the runtime.
"""

from __future__ import annotations

import abc
import collections
import itertools
import threading
import time
from typing import Any, Callable

import numpy as np

from repro.errors import BackendError, NoSuchNodeError, OffloadTimeoutError
from repro.ham.execution import unpack_result
from repro.offload.buffer import BufferPtr
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import TRANSPORT, OffloadTrace

__all__ = [
    "Backend",
    "CoalescePolicy",
    "DEFAULT_INFLIGHT_LIMIT",
    "FrameCoalescer",
    "InflightWindow",
    "InvokeHandle",
]


#: Default bound on invocations in flight per runtime. Large enough to
#: keep a pipelined transport busy, small enough that a runaway producer
#: hits backpressure before exhausting memory.
DEFAULT_INFLIGHT_LIMIT = 64

#: The polling schedule of a waiter with no descriptor to select on (both
#: ends of a shm ring, a loop awaiting one): busy-spin iterations (each
#: one a ``sched_yield``) before the polling loop starts sleeping. Yields
#: hand the CPU straight to a same-core peer, so the spin phase is cheap
#: even on one core; ~4000 yields span a few milliseconds — more than any
#: healthy peer needs to respond.
SPIN_YIELDS = 4000
#: First sleep of the backoff phase (seconds).
SLEEP_MIN = 50e-6
#: Sleep cap of the backoff phase (seconds) — bounds wakeup latency
#: after a long idle period.
SLEEP_MAX = 2e-3


class CoalescePolicy:
    """Flush thresholds of the adaptive message coalescer.

    The wire analogue of the paper's Sec. IV bulk-DMA translation:
    many small active messages amortized into one transfer. A batch is
    flushed by whichever trips first:

    * ``max_bytes`` — the byte budget of one ``sendmsg`` batch;
    * ``max_frames`` — the frame-count budget.

    Adaptivity: while the observed in-flight depth is at most
    ``idle_depth`` the producer is latency-bound, not rate-bound, and
    every frame is flushed immediately ("batch hard under load, flush
    eagerly when idle"). There is no clock: like the paper's DMA sender,
    which writes its slot and arms nothing, a held batch otherwise
    leaves when someone sends a roundtrip or drives the transport —
    whoever waits for a reply sends what is held first.
    """

    __slots__ = ("max_bytes", "max_frames", "idle_depth")

    def __init__(
        self,
        *,
        max_bytes: int = 64 * 1024,
        max_frames: int = 16,
        idle_depth: int = 2,
    ) -> None:
        if max_bytes < 1 or max_frames < 1:
            raise BackendError("coalescing budgets must be positive")
        self.max_bytes = max_bytes
        self.max_frames = max_frames
        self.idle_depth = idle_depth


class FrameCoalescer:
    """Accumulates encoded frames into one scatter-gather batch.

    Transport-agnostic: the owner supplies ``transmit`` (send a list of
    buffer parts — one kernel call for the whole batch) and ``depth``
    (the observed in-flight depth driving adaptivity), and calls
    :meth:`flush` before it sends a roundtrip or waits. Thread-safe;
    the buffer is stolen under the internal lock and transmitted
    outside it, so a slow send never blocks producers from buffering
    the next batch. :meth:`stats` reports batches, frames per batch and
    flush reasons.
    """

    def __init__(
        self,
        *,
        transmit: Callable[[list[Any]], None],
        policy: CoalescePolicy | None = None,
        depth: Callable[[], int] = lambda: 0,
    ) -> None:
        self.policy = policy or CoalescePolicy()
        self._transmit = transmit
        self._depth = depth
        self._lock = threading.Lock()
        self._parts: list[Any] = []
        self._frames = 0
        self._bytes = 0
        #: Cumulative counters (see :meth:`stats`).
        self.batches = 0
        self.frames_coalesced = 0
        self.flush_reasons: dict[str, int] = {}

    def add(self, parts: list[Any], nbytes: int) -> None:
        """Buffer one encoded frame; flush if a budget trips or idle."""
        policy = self.policy
        # Few offloads outstanding: the producer is waiting on latency,
        # not building a pipeline — send immediately.
        idle = self._depth() <= policy.idle_depth
        if idle and not self._frames:
            # Nothing ahead of it either: the frame is its own batch —
            # no lock, no buffer. (A frame another thread buffers
            # meanwhile may be overtaken; order only ever held within
            # one thread.)
            self._send_batch(parts, 1, "idle")
            return
        with self._lock:
            self._parts.extend(parts)
            self._frames += 1
            self._bytes += nbytes
            if (
                self._frames >= policy.max_frames
                or self._bytes >= policy.max_bytes
            ):
                reason = "size" if self._bytes >= policy.max_bytes else "count"
                batch, frames = self._steal_locked()
            elif idle:
                reason = "idle"
                batch, frames = self._steal_locked()
            else:
                return
        self._send_batch(batch, frames, reason)

    def flush(self, reason: str = "explicit") -> int:
        """Transmit everything buffered; returns the frame count sent."""
        if not self._frames:  # whoever emptied the buffer sends it
            return 0
        with self._lock:
            if not self._frames:
                return 0
            batch, frames = self._steal_locked()
        self._send_batch(batch, frames, reason)
        return frames

    def discard(self) -> tuple[int, int]:
        """Drop the buffer without sending; ``(frames, bytes)`` dropped.

        Used when the transport is already dead: the frames can never
        be delivered, and the caller reports the count in the error it
        fails pending futures with.
        """
        with self._lock:
            frames, nbytes = self._frames, self._bytes
            self._steal_locked()
        return frames, nbytes

    def pending(self) -> tuple[int, int]:
        """Currently buffered ``(frames, bytes)``."""
        with self._lock:
            return self._frames, self._bytes

    def _steal_locked(self) -> tuple[list[Any], int]:
        batch, frames = self._parts, self._frames
        self._parts, self._frames, self._bytes = [], 0, 0
        return batch, frames

    def _send_batch(self, parts: list[Any], frames: int, reason: str) -> None:
        self.batches += 1
        self.frames_coalesced += frames
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        self._transmit(parts)

    def stats(self) -> dict[str, Any]:
        frames, nbytes = self.pending()
        return {
            "batches": self.batches,
            "frames_coalesced": self.frames_coalesced,
            "avg_batch_frames": round(
                self.frames_coalesced / self.batches, 2
            ) if self.batches else 0.0,
            "flush_reasons": dict(self.flush_reasons),
            "buffered_frames": frames,
            "buffered_bytes": nbytes,
        }


class _Waiter:
    """One parked :meth:`InflightWindow.acquire`, until a slot is
    granted to it or its wait ends."""

    __slots__ = ("granted",)

    def __init__(self) -> None:
        self.granted = False


class InflightWindow:
    """Bounded, id-keyed table of in-flight invocations.

    The flow-control half of the channel contract, owned by the
    :class:`~repro.offload.runtime.Runtime`: :meth:`acquire` reserves
    capacity before a post (blocking, or failing after ``timeout``),
    :meth:`register` files the posted handle under its correlation id,
    and the handle's completion — from whichever thread delivers the
    reply — calls :meth:`release`. A post that raised returns its slot
    through :meth:`cancel`, and so does a ``Runtime.sync``, which holds a
    slot while it runs but files no handle.

    Waiters are served first come, first served: a slot freed while
    anyone is parked is handed to the oldest parked acquire, never left
    for whoever asks next (the thread that freed it, say).
    """

    #: Longest a waiter drives one handle before it looks again: a
    #: younger invocation may have completed, and freed a slot, meanwhile.
    _DRIVE_SLICE = 0.005

    def __init__(self, limit: int = DEFAULT_INFLIGHT_LIMIT) -> None:
        if limit < 1:
            raise BackendError(f"in-flight window needs a positive limit, got {limit}")
        self._limit = limit
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        #: correlation id -> in-flight handle (the id-keyed table).
        self._inflight: dict[int, "InvokeHandle"] = {}
        #: Slots acquired but not yet registered (post in progress), or
        #: granted to a waiter that has not yet returned.
        self._reserved = 0
        #: Parked acquires, oldest first; none of them granted yet.
        self._waiters: collections.deque[_Waiter] = collections.deque()

    @property
    def limit(self) -> int:
        """Maximum invocations in flight."""
        return self._limit

    def set_limit(self, limit: int) -> None:
        """Resize the window (granting the room it grows by)."""
        if limit < 1:
            raise BackendError(f"in-flight window needs a positive limit, got {limit}")
        with self._lock:
            self._limit = limit
            self._grant_locked()

    @property
    def in_flight(self) -> int:
        """Invocations currently occupying the window."""
        with self._lock:
            return len(self._inflight) + self._reserved

    @property
    def queued(self) -> int:
        """Acquires parked waiting for a slot."""
        with self._lock:
            return len(self._waiters)

    def handles(self) -> dict[int, "InvokeHandle"]:
        """Snapshot of the in-flight table (correlation id -> handle)."""
        with self._lock:
            return dict(self._inflight)

    def acquire(self, *, timeout: float | None = None, label: str = "") -> None:
        """Reserve one window slot, applying backpressure when full.

        Takes a free slot at once; with none free, parks behind the
        waiters already there and waits (see :meth:`_wait_locked`) until
        a freed slot is granted to it, raising
        :class:`~repro.errors.OffloadTimeoutError` after ``timeout``
        seconds.

        Telemetry: the wait, when one actually happens, is recorded as
        an ``offload.window_wait`` span.
        """
        with self._lock:
            # Room means nobody is parked: whatever frees a slot while
            # somebody is grants it to them at once (_grant_locked).
            if len(self._inflight) + self._reserved < self._limit:
                self._reserved += 1
                return
            waiter = _Waiter()
            self._waiters.append(waiter)
        with telemetry.span(
            "offload.window_wait", label=label, limit=self._limit
        ), self._lock:
            try:
                granted = self._wait_locked(waiter, timeout)
            except BaseException:
                if waiter.granted:  # while the drive was failing
                    self._reserved -= 1
                    self._grant_locked()
                else:
                    self._waiters.remove(waiter)
                raise
            if not granted:
                self._waiters.remove(waiter)
                raise OffloadTimeoutError(
                    f"in-flight window full ({self._limit} operations "
                    "outstanding) and no completion within the deadline"
                )

    def _wait_locked(self, waiter: _Waiter, timeout: float | None) -> bool:
        """Lock held: wait until ``waiter`` is granted; ``False`` on
        timeout.

        A handle that something completes on its own notifies the
        condition this sleeps on. A :attr:`Backend.driven` transport
        (tcp, shm, the simulators) completes handles only while
        somebody drives it, so there *a waiter drives the oldest
        in-flight handle* (lock released, a slice at a time) — through
        any proxy or composition, because a handle names the transport
        that posted it. A failure of that drive (the transport died
        under it) propagates.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not waiter.granted:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    return False
            oldest = next(
                (
                    handle for handle in self._inflight.values()
                    if not handle.completed
                    and handle.backend is not None
                    and handle.backend.driven
                ),
                None,
            )
            if oldest is None:
                self._slot_freed.wait(wait)
                continue
            self._lock.release()
            try:
                oldest.backend.drive(
                    oldest, blocking=True,
                    timeout=self._DRIVE_SLICE if wait is None
                    else min(wait, self._DRIVE_SLICE),
                )
            except OffloadTimeoutError:
                pass  # the slice ran out, not the caller's budget
            finally:
                self._lock.acquire()
        return True

    def register(self, handle: "InvokeHandle") -> None:
        """File a posted handle; its completion releases the slot.

        A handle that completed before it got here (a synchronous
        backend, a fast reply) is released at once. Either this sees
        ``completed`` or the completing thread sees ``_window``: both
        write their side before they read the other's, and a second
        release is a no-op.
        """
        with self._lock:
            if self._reserved > 0:
                self._reserved -= 1
            handle._window = self
            self._inflight[handle.correlation_id] = handle
            if self._waiters:
                # Somebody now has a handle to drive (see _wait_locked).
                self._slot_freed.notify_all()
        if handle.completed:
            self.release(handle)

    def cancel(self) -> None:
        """Return an acquired slot no handle took over: a post that
        raised, or a ``Runtime.sync`` that is done."""
        with self._lock:
            if self._reserved > 0:
                self._reserved -= 1
            self._grant_locked()

    def release(self, handle: "InvokeHandle") -> None:
        """Free a completed handle's slot (idempotent)."""
        with self._lock:
            if self._inflight.pop(handle.correlation_id, None) is not None:
                self._grant_locked()

    def _grant_locked(self) -> None:
        """Capacity may have appeared: grant it to the oldest waiters,
        in order, and wake them."""
        waiters = self._waiters
        if not waiters:
            return
        granted = False
        while waiters and len(self._inflight) + self._reserved < self._limit:
            waiters.popleft().granted = True
            self._reserved += 1
            granted = True
        if granted:
            self._slot_freed.notify_all()


class InvokeHandle:
    """Pending remote invocation; satisfies the future's handle protocol.

    Each handle carries a process-unique :attr:`correlation_id` — the
    key frames are tagged with on the wire and replies are matched by.
    Backends complete it by calling :meth:`complete_with_reply` (raw HAM
    reply bytes) or :meth:`complete_with_error` from any thread; both
    publish completion and release the slot of the window the handle
    was registered in, if any. ``wait`` delegates to the backend's
    :meth:`Backend.drive` so each backend decides how to make progress
    (read the transport, advance the simulator, ...).
    """

    _ids = itertools.count(1)
    #: The window this handle occupies a slot of (set by
    #: :meth:`InflightWindow.register`).
    _window: InflightWindow | None = None
    #: The record of the traced offload this handle carries (set by the
    #: backend that posts it): its reply and its wait's phases are
    #: stamped there.
    trace: OffloadTrace | None = None

    def __init__(
        self, backend: "Backend", label: str = "", correlation_id: int = 0
    ) -> None:
        self.backend = backend
        #: A fresh id, or the one of a frame already sent (0: draw one).
        self.correlation_id = correlation_id or next(self._ids)
        self.label = label
        self._reply: Any = None
        self._error: BaseException | None = None
        #: Whether a reply or error has been delivered (read-only for
        #: callers; set once by ``_finish``, under ``_cb_lock``).
        self.completed = False
        # Most handles complete before anyone has to block on them: the
        # event is created by the first waiter that must (wait_event).
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[["InvokeHandle"], None]] = []
        self._cb_lock = threading.Lock()

    # -- backend side --------------------------------------------------------
    def complete_with_reply(self, reply: bytes) -> None:
        """Deliver the raw reply message (thread-safe)."""
        self._reply = reply
        self._finish()

    def complete_with_error(self, error: BaseException) -> None:
        """Deliver a transport-level failure (thread-safe)."""
        self._error = error
        self._finish()

    def _finish(self) -> None:
        # Flag, event and callback list change hands under one lock: a
        # waiter creating its event concurrently either sees the flag
        # or has its event seen (and set) here — no lost wake-up.
        with self._cb_lock:
            self.completed = True
            event = self._event
            callbacks, self._callbacks = self._callbacks, []
        if event is not None:
            event.set()
        window = self._window
        if window is not None:
            window.release(self)
        for fn in callbacks:
            self._run_callback(fn)

    def add_done_callback(
        self, fn: Callable[["InvokeHandle"], None]
    ) -> None:
        """Invoke ``fn(handle)`` once the handle completes (thread-safe).

        The wake-up half of the asyncio bridge: callbacks fire *after*
        the window slot is released, from whichever thread delivers the
        completion — or immediately, in the calling thread, when the
        handle is already done. Attaching one makes nobody read: on a
        driven transport the reply still needs a waiter, a blocking one
        or an awaiting loop (:class:`~repro.offload.future.AwaitingLoop`).
        Callbacks must be cheap and must not block (they may run inside
        another caller's wait); exceptions are counted and swallowed.
        """
        with self._cb_lock:
            if not self.completed:
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn: Callable[["InvokeHandle"], None]) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - observers must not poison I/O
            telemetry.count("offload.callback_errors")

    # -- future side ------------------------------------------------------------
    def wait_event(self, timeout: float | None = None) -> bool:
        """Block until completion; used by threaded transports."""
        with self._cb_lock:
            if self.completed:
                return True
            event = self._event
            if event is None:
                event = self._event = threading.Event()
        return event.wait(timeout)

    def test(self) -> bool:
        """Non-blocking probe; lets the backend poll without blocking."""
        if not self.completed:
            self.backend.drive(self, blocking=False)
        return self.completed

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; decode and return the remote value.

        With ``timeout`` set, the backend raises
        :class:`~repro.errors.OffloadTimeoutError` instead of blocking
        past the deadline (the handle stays pending).

        Telemetry phase ``offload.transport``, stamped into a traced
        offload's record: the wait from "posted" until the reply (or a
        transport error) arrives — wire plus remote-execution time as
        seen by the host. Stamped even when another waiter's drive
        already completed the handle (~0 ns), so every awaited offload
        shows the full phase taxonomy; a backend that stamped it at post
        (local's synchronous call) is not stamped again.
        """
        trace = self.trace
        if trace is not None and not trace.starts[TRANSPORT]:
            stack = trace.wait_stack = trace.recorder._thread.stack
            trace.run(TRANSPORT, stack, self._drive, timeout)
        elif not self.completed:
            self.backend.drive(self, blocking=True, timeout=timeout)
        if self._error is not None:
            raise self._error
        assert self._reply is not None
        _msg_id, value = unpack_result(self._reply, trace)
        return value

    def _drive(self, timeout: float | None) -> None:
        if not self.completed:
            self.backend.drive(self, blocking=True, timeout=timeout)


class Backend(abc.ABC):
    """Base class of all communication backends: a transport.

    A backend moves invocations and buffers; who may post next, and how
    long they may wait, is the posting runtime's
    :class:`InflightWindow`.
    """

    #: Backend name used in node descriptors and reports.
    name: str = "abstract"
    #: Whether handles complete only while a caller drives the transport
    #: (no receiver completes them on its own): a window waiter then
    #: drives instead of sleeping, see :meth:`InflightWindow._wait_locked`.
    driven: bool = False

    #: Non-blocking drives an awaiting asyncio loop made.
    loop_polls: int = 0

    def _reply_fd(self) -> int | None:
        """A descriptor that polls readable when a reply may have
        arrived, for an awaiting loop to watch; ``None``: it polls."""
        return None

    # -- topology ---------------------------------------------------------
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of processes in the application (host + targets)."""

    @abc.abstractmethod
    def descriptor(self, node: NodeId) -> NodeDescriptor:
        """Descriptor of ``node``."""

    def check_target(self, node: NodeId) -> None:
        """Validate that ``node`` names an offload target."""
        if node == HOST_NODE:
            raise NoSuchNodeError("node 0 is the host, not an offload target")
        if not 0 < node < self.num_nodes():
            raise NoSuchNodeError(
                f"node {node} outside application of {self.num_nodes()} processes"
            )

    # -- invocation -----------------------------------------------------------
    @abc.abstractmethod
    def post_invoke(self, node: NodeId, functor: Any) -> InvokeHandle:
        """Send a functor to ``node`` for execution; returns a handle."""

    def sync_invoke(self, node: NodeId, functor: Any,
                    timeout: float | None = None) -> Any:
        """:meth:`post_invoke` and its result in one call, read by the
        caller; past ``timeout`` the error carries the handle still filed
        for the late reply (:attr:`OffloadTimeoutError.handle`)."""
        handle = self.post_invoke(node, functor)
        try:
            return handle.wait(timeout)
        except OffloadTimeoutError as exc:
            exc.handle = handle
            raise

    @abc.abstractmethod
    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        """Make progress toward completing ``handle``.

        Non-blocking calls must return promptly; blocking calls must not
        return before the handle completes (or raise
        :class:`BackendError` if that is impossible). With ``timeout``
        set, a blocking call raises
        :class:`~repro.errors.OffloadTimeoutError` once the deadline
        passes — seconds of wall clock on functional backends, simulated
        seconds on the sim backends.
        """

    # -- memory ------------------------------------------------------------------
    @abc.abstractmethod
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        """Allocate ``nbytes`` on ``node``; returns the target address."""

    @abc.abstractmethod
    def free_buffer(self, node: NodeId, addr: int) -> None:
        """Free a target allocation."""

    @abc.abstractmethod
    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        """Write host bytes into target memory (the ``put`` transport)."""

    @abc.abstractmethod
    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        """Read target memory into host bytes (the ``get`` transport)."""

    def copy_buffer(
        self,
        src_node: NodeId,
        src_addr: int,
        dst_node: NodeId,
        dst_addr: int,
        nbytes: int,
    ) -> None:
        """Target-to-target copy, orchestrated by the host (paper Table II).

        The default stages through host memory; backends with direct
        paths may override.
        """
        self.write_buffer(dst_node, dst_addr, self.read_buffer(src_node, src_addr, nbytes))

    # -- health ------------------------------------------------------------------
    def ping(self, node: NodeId) -> float:
        """Liveness probe of ``node``; returns the round-trip seconds.

        Raises an :class:`~repro.errors.OffloadError` subclass if the
        node is unreachable. The default validates the node id and
        reports zero latency — correct for in-process and simulated
        targets that cannot silently die; transport backends override
        with a real heartbeat (the TCP backend's ``OP_PING``).
        """
        self.check_target(node)
        return 0.0

    def set_default_timeout(self, seconds: float | None) -> None:
        """Default per-operation deadline for synchronous transports.

        A no-op on backends without blocking I/O; the TCP backend applies
        it to every roundtrip and blocking drive. The runtime calls this
        with ``ResiliencePolicy.deadline`` so no offload path can block
        forever once a policy is installed.
        """

    # -- target-side argument resolution ------------------------------------------
    def resolve_buffer(self, node: NodeId, ptr: BufferPtr) -> np.ndarray:
        """Turn a :class:`BufferPtr` into a live view on the target.

        Called by the target-side message loop for every BufferPtr
        argument. Backends owning real target memory override this;
        the default refuses.
        """
        raise BackendError(f"backend {self.name!r} cannot resolve buffer pointers")

    # -- introspection -------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Backend counters for monitoring/debugging.

        The base implementation returns an empty dict; backends add
        transport-specific counters (messages executed, bytes moved,
        hardware-operation counts, simulated time).
        """
        return {}

    def introspect_target(
        self, timeout: float | None = None
    ) -> dict[str, Any] | None:
        """The target's live state in the transport-agnostic shape
        (``role``, ``transport``, ``pid``, ``messages_executed``,
        ``live_buffers``, ``rings``); ``None`` when the target has no state to report
        (the simulators). ``timeout`` bounds a wire round trip."""
        return None

    # -- lifecycle -----------------------------------------------------------------
    @abc.abstractmethod
    def shutdown(self) -> None:
        """Stop target message loops and release transport resources."""

