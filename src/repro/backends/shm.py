"""Shared-memory communication backend — the paper's DMA protocol on real processes.

The paper's headline result (Sec. IV-B: 6.1 µs vs 432 µs per offload)
comes from replacing daemon-mediated VEO calls with direct loads/stores
on a SysV shared-memory segment registered in the VE's DMAATB: the VH
writes a message into the segment, the VE polls a flag word with LHM
loads, executes, and stores the result back with SHM stores. This module
is the same move for the *real* (non-simulated) path: host and target
are ordinary processes sharing one ``multiprocessing.shared_memory``
segment, laid out as a pair of lock-free single-producer/single-consumer
ring buffers — ``h2t`` (host→target requests) and ``t2h`` (target→host
replies). No sockets, no syscalls per message: a post is a few stores
into the segment, a receive is a polling load, exactly like the paper's
LHM/SHM loop.

Segment layout (all integers little-endian)::

    0    magic   u64   "HAMSHM01"
    8    ring capacity u64 (bytes per ring)
    16   state   u32   0 = starting, 1 = ready, 2 = stopped
    20   server pid u32
    24   client pid u32
    64   h2t tail u64      (producer cursor, own cache line)
    128  h2t head u64      (consumer cursor, own cache line)
    192  t2h tail u64
    256  t2h head u64
    512  h2t ring data [capacity]
    512 + capacity  t2h ring data [capacity]

Ring cursors are *monotonic* byte counters (position = counter mod
capacity), so empty is ``head == tail``, full is ``tail - head ==
capacity``, and no slot is ever ambiguous. Only the producer writes the
tail, only the consumer writes the head, both through one ``"Q"``-cast
view of the header (:attr:`ShmSegment.cursors`): an aligned 8-byte
access there is a single load or store, atomic on the architectures
CPython runs multiprocessing on — ``struct.pack_into("<Q")`` is *not*,
it stores byte by byte and a concurrent reader sees torn values — which
makes the rings lock-free without any further synchronization. Frames reuse
the TCP wire format (``length:u32 | op:u8 | corr:u64 | body``) including
the correlation-id reply matching, so the whole channel contract —
out-of-order completion, the in-flight window, QoS, hedging, telemetry —
composes unchanged.

Both ends poll with the paper's adaptive *spin-then-sleep* loop: a
bounded busy-spin phase (interleaved with ``sched_yield`` so a same-core
peer gets the CPU immediately — the single-core analogue of the VE's LHM
polling) followed by exponential sleep backoff for idle periods. Tune
with ``spin_yields`` / ``sleep_min`` / ``sleep_max`` on both
:class:`ShmBackend` and :class:`ShmTargetServer`.

Unlike the TCP backend there is **no receiver thread**: the client is
*driven* — whichever caller waits on a reply takes the drive lock and
pumps the reply ring for everybody (leader/follower). On a small host
that removes two context switches per roundtrip, which is exactly where
the latency lives for small messages.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import threading
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

from repro.backends import eventloop
from repro.backends._server import FramedServer
from repro.backends.base import Backend, InvokeHandle
from repro.backends.tcp import (
    DEFAULT_SERVER_WORKERS,
    FRAME_OVERHEAD,
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
    _unsampled_reply_context,
)
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham.execution import build_invoke_parts
from repro.ham.functor import Functor
from repro.ham.registry import Catalog, ProcessImage
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.telemetry import context as trace_context
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.distributed import ClockSync, align_records
from repro.telemetry.export import dicts_to_records

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "ShmBackend",
    "ShmRing",
    "ShmSegment",
    "ShmTargetServer",
    "spawn_shm_server",
]

_LEN = struct.Struct("<I")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: ``length | op | corr`` — the in-ring frame prefix (13 bytes).
_PREFIX = struct.Struct("<IBQ")
#: op byte + correlation id, counted inside the frame length.
_FRAME_META = 1 + _U64.size

#: Bytes per ring direction. Frames larger than this cannot be posted;
#: the backend chunks bulk WRITE/READ traffic to stay under it.
DEFAULT_RING_CAPACITY = 1 << 20

#: Busy-spin iterations (each one a ``sched_yield``) before the polling
#: loop starts sleeping. Yields hand the CPU straight to a same-core
#: peer, so the spin phase is cheap even on one core; ~4000 yields span
#: a few milliseconds — more than any healthy peer needs to respond.
DEFAULT_SPIN_YIELDS = 4000
#: First sleep of the backoff phase (seconds).
DEFAULT_SLEEP_MIN = 50e-6
#: Sleep cap of the backoff phase (seconds) — bounds wakeup latency
#: after a long idle period.
DEFAULT_SLEEP_MAX = 2e-3

#: Reactor-backstop pump cadence while replies are flowing (seconds) —
#: the completion latency an asyncio awaiter observes on shm.
_BACKSTOP_MIN = 1e-3
#: Backstop cadence cap while outstanding work is quiet.
_BACKSTOP_MAX = 50e-3

#: Segment header field offsets (see the module docstring's layout).
_OFF_MAGIC = 0
_OFF_CAPACITY = 8
_OFF_STATE = 16
_OFF_SERVER_PID = 20
_OFF_CLIENT_PID = 24
_OFF_H2T_TAIL = 64
_OFF_H2T_HEAD = 128
_OFF_T2H_TAIL = 192
_OFF_T2H_HEAD = 256
_DATA_OFFSET = 512

_MAGIC = int.from_bytes(b"HAMSHM01", "little")

STATE_STARTING = 0
STATE_READY = 1
STATE_STOPPED = 2

#: How many polling iterations pass between liveness/deadline checks.
#: Checking every iteration would double the cost of a spin step for a
#: condition that changes at process-death timescales.
_CHECK_MASK = 63


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, different user
        return True
    return True


def _byte_view(part: Any) -> Any:
    """A flat byte-level view of one frame part (zero-copy)."""
    if isinstance(part, (bytes, bytearray)):
        return part
    view = memoryview(part)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


class ShmSegment:
    """One shared-memory segment: header plus the two rings.

    Create it on the side that owns the segment's lifetime (the side
    that will eventually :meth:`unlink` it), attach from the other.
    Attaching unregisters the mapping from this process's
    ``resource_tracker`` so a non-owner exiting neither unlinks the
    segment under the owner's feet nor warns about a "leak" it does not
    own. A fork-inherited :class:`ShmSegment` (the
    :func:`spawn_shm_server` path) needs no such fixup — the mapping was
    registered exactly once, in the owner.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, capacity: int, owner: bool
    ) -> None:
        self._shm = shm
        #: The header as u64 words (index = byte offset // 8): the only
        #: way ring cursors are loaded and stored, see the module docstring.
        self.cursors = shm.buf[:_DATA_OFFSET].cast("Q")
        self.capacity = capacity
        self._owner = owner
        self._closed = False
        self._unlinked = False

    @classmethod
    def create(
        cls, capacity: int = DEFAULT_RING_CAPACITY, name: str | None = None
    ) -> "ShmSegment":
        """Create (and own) a fresh segment sized for two rings."""
        if capacity < 4096:
            raise BackendError(
                f"ring capacity must be at least 4096 bytes, got {capacity}"
            )
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_DATA_OFFSET + 2 * capacity
        )
        buf = shm.buf
        # The kernel zero-fills fresh segments, so cursors/state start 0.
        _U64.pack_into(buf, _OFF_CAPACITY, capacity)
        _U32.pack_into(buf, _OFF_STATE, STATE_STARTING)
        # Magic last: an attacher that sees it sees a complete header.
        _U64.pack_into(buf, _OFF_MAGIC, _MAGIC)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmSegment":
        """Attach to an existing segment by name (non-owning)."""
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise BackendError(f"no shared-memory segment named {name!r}") from exc
        # Attaching registered the segment with *this* process's
        # resource tracker, which would unlink it (with a leak warning)
        # when this process exits — but the creator owns the unlink.
        resource_tracker.unregister(shm._name, "shared_memory")
        buf = shm.buf
        if _U64.unpack_from(buf, _OFF_MAGIC)[0] != _MAGIC:
            shm.close()
            raise BackendError(
                f"segment {name!r} is not a HAM shm transport segment"
            )
        capacity = _U64.unpack_from(buf, _OFF_CAPACITY)[0]
        return cls(shm, capacity, owner=False)

    # -- header fields -----------------------------------------------------
    @property
    def name(self) -> str:
        """The segment's system-wide name (attachable by other processes)."""
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        """The raw mapping (rings index into it with absolute offsets)."""
        return self._shm.buf

    @property
    def state(self) -> int:
        return _U32.unpack_from(self._shm.buf, _OFF_STATE)[0]

    @state.setter
    def state(self, value: int) -> None:
        _U32.pack_into(self._shm.buf, _OFF_STATE, value)

    @property
    def server_pid(self) -> int:
        return _U32.unpack_from(self._shm.buf, _OFF_SERVER_PID)[0]

    @server_pid.setter
    def server_pid(self, pid: int) -> None:
        _U32.pack_into(self._shm.buf, _OFF_SERVER_PID, pid)

    @property
    def client_pid(self) -> int:
        return _U32.unpack_from(self._shm.buf, _OFF_CLIENT_PID)[0]

    @client_pid.setter
    def client_pid(self, pid: int) -> None:
        _U32.pack_into(self._shm.buf, _OFF_CLIENT_PID, pid)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.cursors.release()  # or the mapping below stays exported
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a live view escaped
            pass

    def unlink(self) -> None:
        """Remove the segment system-wide (owner only, idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ShmRing:
    """One lock-free SPSC ring of framed messages inside a segment.

    The producer owns the tail cursor, the consumer the head cursor;
    both are monotonic byte counters living in the segment header (each
    on its own cache line). A frame becomes visible atomically: its
    bytes are copied in first, the tail published last. Waiting — for
    data on the consumer side, for space on the producer side — is the
    adaptive spin-then-sleep loop described in the module docstring.
    """

    def __init__(
        self,
        segment: ShmSegment,
        tail_off: int,
        head_off: int,
        data_off: int,
        *,
        name: str,
        spin_yields: int = DEFAULT_SPIN_YIELDS,
        sleep_min: float = DEFAULT_SLEEP_MIN,
        sleep_max: float = DEFAULT_SLEEP_MAX,
    ) -> None:
        self._buf = segment.buf
        self._cursors = cursors = segment.cursors
        self._tail_idx = tail_off // 8
        self._head_idx = head_off // 8
        self._data_off = data_off
        self._capacity = segment.capacity
        self._name = name
        self._spin = spin_yields
        self._sleep_min = sleep_min
        self._sleep_max = sleep_max
        # Each side *owns* one cursor — nobody else ever writes it — so
        # its current value can live in a plain attribute and skip a
        # shared-memory load per operation. The peer's cursor must of
        # course always be re-read from the segment.
        self._tail = cursors[self._tail_idx]
        self._head = cursors[self._head_idx]
        # Spin-vs-sleep accounting: how many waits were satisfied inside
        # the busy-spin phase versus spilling into the sleep backoff (a
        # "stall"), and how long the stalls slept in total. Only touched
        # when a wait actually happened — the no-wait fast path (data or
        # space already there) costs nothing extra.
        self.spin_waits = 0
        self.sleep_stalls = 0
        self.stalled_s = 0.0

    def _account_wait(self, spins: int, slept: float) -> None:
        """Book one completed wait into the spin/stall counters."""
        recording = telemetry.enabled()  # the series names are formatted
        if spins > self._spin:
            self.sleep_stalls += 1
            self.stalled_s += slept
            if recording:
                telemetry.observe(f"shm.wait.stall_us.{self._name}", slept * 1e6)
        else:
            self.spin_waits += 1
            if recording:
                telemetry.observe(f"shm.wait.spin_yields.{self._name}", spins)

    # -- cursors -----------------------------------------------------------
    def readable(self) -> bool:
        """Whether at least one frame awaits the consumer."""
        return self._cursors[self._tail_idx] != self._head

    def used(self) -> int:
        """Bytes currently queued (tail - head)."""
        cursors = self._cursors
        return cursors[self._tail_idx] - cursors[self._head_idx]

    # -- byte copies (wrap-aware) ------------------------------------------
    def _copy_in(self, counter: int, data: Any) -> int:
        """Copy ``data`` into the ring at ``counter``; returns the new
        counter. The caller guarantees the space exists."""
        buf = self._buf
        cap = self._capacity
        base = self._data_off
        pos = counter % cap
        n = len(data)
        end = pos + n
        if end <= cap:
            buf[base + pos : base + end] = data
        else:
            first = cap - pos
            buf[base + pos : base + cap] = data[:first]
            buf[base : base + end - cap] = data[first:]
        return counter + n

    def _copy_out(self, counter: int, dest: bytearray) -> None:
        """Fill ``dest`` from the ring at ``counter`` (caller checked
        availability)."""
        buf = self._buf
        cap = self._capacity
        base = self._data_off
        pos = counter % cap
        n = len(dest)
        end = pos + n
        if end <= cap:
            dest[:] = buf[base + pos : base + end]
        else:
            first = cap - pos
            dest[:first] = buf[base + pos : base + cap]
            dest[first:] = buf[base : base + end - cap]

    # -- consumer side -----------------------------------------------------
    def wait_readable(
        self,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> bool:
        """Poll until a frame is available; ``False`` on timeout.

        ``stop`` is consulted every :data:`_CHECK_MASK`+1 iterations;
        when it returns an exception the ring is checked one final time
        (the peer may have replied *and then* died or stopped — those
        last frames must still be consumed) before the exception is
        raised.
        """
        cursors = self._cursors
        tail_idx = self._tail_idx
        head = self._head
        if cursors[tail_idx] != head:
            return True
        if timeout is not None and timeout <= 0:
            return False
        spin = self._spin
        yield_cpu = os.sched_yield
        sleep_s = self._sleep_min
        # The deadline clock is read lazily, at the first bookkeeping
        # interval — the overwhelmingly common wait is a handful of
        # yields, which shouldn't pay for timeout arithmetic.
        deadline: float | None = None
        spins = 0
        slept = 0.0
        while True:
            if cursors[tail_idx] != head:
                self._account_wait(spins, slept)
                return True
            spins += 1
            if spins <= spin:
                yield_cpu()
                if spins & _CHECK_MASK:
                    continue
            else:
                time.sleep(sleep_s)
                slept += sleep_s
                sleep_s = min(sleep_s + sleep_s, self._sleep_max)
            if stop is not None:
                error = stop()
                if error is not None:
                    if cursors[tail_idx] != head:
                        self._account_wait(spins, slept)
                        return True
                    raise error
            if timeout is not None:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                elif now >= deadline:
                    if cursors[tail_idx] != head:
                        self._account_wait(spins, slept)
                        return True
                    return False

    def read_frame(self) -> tuple[int, int, memoryview]:
        """Consume one frame; returns ``(op, correlation_id, body_view)``.

        The body is a :class:`memoryview` over a freshly copied buffer —
        the ring slot is released (head advanced) before returning, so
        the view is safe to hand to another thread.
        """
        buf = self._buf
        head = self._head
        cap = self._capacity
        base = self._data_off
        pos = head % cap
        if pos + 4 <= cap:
            length = _LEN.unpack_from(buf, base + pos)[0]
        else:
            scratch = bytearray(4)
            self._copy_out(head, scratch)
            length = _LEN.unpack(scratch)[0]
        if length < _FRAME_META or length > cap - 4:
            raise BackendError(
                f"corrupt frame in shm ring {self._name!r}: "
                f"length {length} outside [{_FRAME_META}, {cap - 4}]"
            )
        start = pos + 4
        if start + length <= cap:
            # Hot path — the frame is contiguous: one C-level copy.
            payload = bytes(buf[base + start : base + start + length])
        else:
            scratch = bytearray(length)
            self._copy_out(head + 4, scratch)
            payload = bytes(scratch)
        head += 4 + length
        self._head = head
        self._cursors[self._head_idx] = head
        return payload[0], _U64.unpack_from(payload, 1)[0], memoryview(payload)[
            _FRAME_META:
        ]

    # -- producer side -----------------------------------------------------
    def _await_space(
        self,
        total: int,
        timeout: float | None,
        stop: Callable[[], BaseException | None] | None,
    ) -> None:
        cursors = self._cursors
        head_idx = self._head_idx
        tail = self._tail
        spin = self._spin
        yield_cpu = os.sched_yield
        sleep_s = self._sleep_min
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        slept = 0.0
        while self._capacity - (tail - cursors[head_idx]) < total:
            spins += 1
            if spins <= spin:
                yield_cpu()
                if spins & _CHECK_MASK:
                    continue
            else:
                time.sleep(sleep_s)
                slept += sleep_s
                sleep_s = min(sleep_s + sleep_s, self._sleep_max)
            if stop is not None:
                error = stop()
                if error is not None:
                    raise error
            if deadline is not None and time.monotonic() >= deadline:
                raise OffloadTimeoutError(
                    f"shm ring {self._name!r} stayed full for "
                    f"{timeout:g} s ({total} bytes needed)"
                )
        self._account_wait(spins, slept)

    def write_frame(
        self,
        op: int,
        corr: int,
        parts: tuple,
        *,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> int:
        """Post one frame; returns its size in ring bytes.

        Blocks (spin-then-sleep) while the ring lacks space — that wait
        is the transport-level backpressure under the in-flight window,
        recorded as a ``shm.ring_wait`` span when telemetry is on.
        Frames larger than the ring cannot ever fit and raise
        :class:`BackendError` — bulk data travels chunked (see
        :meth:`ShmBackend.write_buffer`).
        """
        if not parts:
            views: Any = ()
            body_len = 0
        elif len(parts) == 1 and type(parts[0]) is bytes:
            views = parts
            body_len = len(parts[0])
        else:
            views = [_byte_view(part) for part in parts if len(part)]
            body_len = sum(len(view) for view in views)
        total = 4 + _FRAME_META + body_len
        cap = self._capacity
        if total > cap:
            raise BackendError(
                f"frame of {total} bytes exceeds shm ring capacity "
                f"{cap} — raise capacity= or stage bulk data "
                "through put/get"
            )
        buf = self._buf
        tail = self._tail
        if cap - (tail - self._cursors[self._head_idx]) < total:
            if telemetry.get() is not None:
                with telemetry.span(
                    "shm.ring_wait", ring=self._name, bytes=total
                ):
                    self._await_space(total, timeout, stop)
            else:
                self._await_space(total, timeout, stop)
        prefix = _PREFIX.pack(_FRAME_META + body_len, op, corr)
        pos = tail % cap
        base = self._data_off
        if pos + total <= cap and body_len < 65536:
            # Hot path — contiguous small frame: join and copy once.
            if not views:
                frame = prefix
            elif type(views[0]) is bytes and len(views) == 1:
                frame = prefix + views[0]
            else:
                frame = b"".join((prefix, *views))
            buf[base + pos : base + pos + total] = frame
        else:
            cursor = self._copy_in(tail, prefix)
            for view in views:
                cursor = self._copy_in(cursor, view)
        tail += total
        self._tail = tail
        # Publish last: the consumer never sees a partial frame.
        self._cursors[self._tail_idx] = tail
        return total


def _ring_state(ring: ShmRing) -> dict[str, Any]:
    """One ring's cursors, occupancy and wait counters (introspection).

    Both ends report the same shape, so a wedged ring can be diagnosed
    from either side: matching cursors with a stuck peer means the peer
    stopped producing; ``used == capacity`` with growing ``sleep_stalls``
    means the consumer stopped draining.
    """
    try:
        tail = ring._cursors[ring._tail_idx]
        head = ring._cursors[ring._head_idx]
    except ValueError:  # mapping already released
        tail = head = 0
    return {
        "name": ring._name,
        "tail": tail,
        "head": head,
        "used": tail - head,
        "capacity": ring._capacity,
        "spin_waits": ring.spin_waits,
        "sleep_stalls": ring.sleep_stalls,
        "stalled_s": ring.stalled_s,
    }


def _host_to_target_ring(segment: ShmSegment, **knobs: Any) -> ShmRing:
    return ShmRing(
        segment, _OFF_H2T_TAIL, _OFF_H2T_HEAD, _DATA_OFFSET,
        name="h2t", **knobs,
    )


def _target_to_host_ring(segment: ShmSegment, **knobs: Any) -> ShmRing:
    return ShmRing(
        segment, _OFF_T2H_TAIL, _OFF_T2H_HEAD, _DATA_OFFSET + segment.capacity,
        name="t2h", **knobs,
    )


class ShmTargetServer(FramedServer):
    """The target-side polling loop: one client, concurrent execution.

    The mirror image of :class:`~repro.backends.tcp.TcpTargetServer`
    over rings instead of a socket, on the same leader/followers loop
    (:class:`~repro.backends._server.FramedServer`): the thread that
    polls an INVOKE off the request ring executes it and posts the reply
    itself while another takes over polling — up to ``workers`` at once,
    replies in completion order, tagged with their correlation ids — and
    memory and control operations run inline on whichever thread is
    polling. The loop exits on SHUTDOWN, on a corrupt request ring, or
    when the client process disappears (pid liveness probe), setting the
    segment's state word to ``STATE_STOPPED`` either way so the client's
    own polling loop can tell "stopped" from "wedged".
    """

    transport = "shm"
    _CLIENT_GONE = (BackendError, OffloadTimeoutError)

    def __init__(
        self,
        segment: ShmSegment,
        catalog: Catalog | None = None,
        workers: int = DEFAULT_SERVER_WORKERS,
        *,
        spin_yields: int = DEFAULT_SPIN_YIELDS,
        sleep_min: float = DEFAULT_SLEEP_MIN,
        sleep_max: float = DEFAULT_SLEEP_MAX,
    ) -> None:
        super().__init__(catalog, workers)
        self.segment = segment
        knobs = dict(
            spin_yields=spin_yields, sleep_min=sleep_min, sleep_max=sleep_max
        )
        self._recv = _host_to_target_ring(segment, **knobs)
        self._send = _target_to_host_ring(segment, **knobs)
        #: Every serving thread posts to the one reply ring.
        self._send_lock = threading.Lock()
        #: Bound once — creating a bound method per frame costs real
        #: time at shared-memory latencies.
        self._client_gone_cb = self._client_gone
        segment.server_pid = os.getpid()

    def serve_forever(self) -> None:
        """Serve requests until SHUTDOWN, ring corruption or client death."""
        self.segment.state = STATE_READY
        try:
            self._serve()
        finally:
            # After the state flips the client stops waiting on the
            # reply ring — everything it should see is already there.
            self.segment.state = STATE_STOPPED

    def _next_frame(self) -> tuple[int, int, memoryview]:
        """Leader only: poll the request ring for the next frame."""
        self._recv.wait_readable(stop=self._client_gone_cb)
        return self._recv.read_frame()

    def _client_gone(self) -> BackendError | None:
        pid = self.segment.client_pid
        if pid and not _pid_alive(pid):
            return BackendError(f"shm client process {pid} is gone")
        return None

    def _reply(self, op: int, corr: int, *parts: Any) -> None:
        with self._send_lock:
            self._send.write_frame(op, corr, parts, stop=self._client_gone_cb)

    def _reply_span_attrs(self) -> dict[str, Any]:
        # The reply ring's occupancy *before* this reply is posted: a slow
        # reply with a near-full ring is host-side backpressure (the
        # client is not draining), not slow execution.
        return {"ring_used": self._send.used()}

    def introspect(self) -> dict[str, Any]:
        """The shared introspection dict with the ring block filled in:
        per-direction cursors and occupancy as this process sees them
        (the request ring is this side's consumer view, the reply ring
        its producer view)."""
        state = super().introspect()
        state["rings"] = {
            "capacity": self.segment.capacity,
            "request": _ring_state(self._recv),
            "reply": _ring_state(self._send),
        }
        return state


def _server_entry(
    segment: ShmSegment, catalog: Catalog | None, workers: int
) -> None:
    recorder = telemetry.get()
    if recorder is not None:
        # Same rationale as the TCP fork: the sampling/SLO machinery is
        # host-side; the target only records (or skips) spans.
        recorder.sampler = None
        recorder.pipeline = None
        recorder.slo = None
    server = ShmTargetServer(segment, catalog=catalog, workers=workers)
    try:
        server.serve_forever()
    finally:
        segment.close()


def spawn_shm_server(
    catalog: Catalog | None = None,
    *,
    startup_timeout: float = 10.0,
    workers: int = DEFAULT_SERVER_WORKERS,
    capacity: int = DEFAULT_RING_CAPACITY,
) -> tuple[multiprocessing.Process, ShmSegment]:
    """Fork a target-server child; returns ``(process, segment)``.

    The segment is created here — owned by the calling (host) process,
    which unlinks it at :meth:`ShmBackend.shutdown` — and inherited
    through the fork, so the child needs no attach and no resource-
    tracker fixups. Forking also inherits the offloadable catalog, the
    moral equivalent of building host and target from the same source.
    """
    ctx = multiprocessing.get_context("fork")
    segment = ShmSegment.create(capacity=capacity)
    segment.client_pid = os.getpid()
    process = ctx.Process(
        target=_server_entry, args=(segment, catalog, workers), daemon=True
    )
    process.start()
    deadline = time.monotonic() + startup_timeout
    while segment.state != STATE_READY:
        if not process.is_alive():
            segment.close()
            segment.unlink()
            raise BackendError("shm target server died during startup")
        if time.monotonic() >= deadline:
            process.terminate()
            process.join(timeout=5)
            segment.close()
            segment.unlink()
            raise BackendError(
                f"shm target server did not start within {startup_timeout:g} s"
            )
        time.sleep(0.001)
    return process, segment


class ShmBackend(Backend):
    """Client side of the shared-memory backend (one target).

    There is no receiver thread: whichever caller needs a reply takes
    the drive lock and pumps the reply ring, completing *every* arriving
    reply through the correlation-id table (leader/follower). Threads
    that lose the race wait on their own completion events in short
    slices and re-contend. On the posting side a full request ring is
    transport backpressure *under* the in-flight window — the window is
    what callers normally hit first.

    Parameters
    ----------
    segment:
        A :class:`ShmSegment` (from :func:`spawn_shm_server`) or the
        name of one to attach to (a standalone
        ``python -m repro.backends.target_main --transport shm`` target).
    catalog:
        The offloadable catalog (defaults to the global one).
    on_shutdown:
        Called after the transport closes (used to join a spawned server
        process).
    op_timeout:
        Default deadline for blocking operations, like the TCP backend.
    alive_fn:
        Liveness probe for the server process. ``Process.is_alive`` of a
        spawned child both detects death *and* reaps the zombie — pid
        probes alone cannot see a zombie's death. Defaults to a pid
        probe of the segment's ``server_pid`` field.
    startup_timeout:
        Deadline for the segment to become ready + the handshake.
    spin_yields / sleep_min / sleep_max:
        The spin-then-sleep polling knobs (see the module docstring).
    """

    name = "shm"

    def __init__(
        self,
        segment: ShmSegment | str,
        catalog: Catalog | None = None,
        on_shutdown: Callable[[], None] | None = None,
        *,
        op_timeout: float | None = None,
        alive_fn: Callable[[], bool] | None = None,
        startup_timeout: float = 10.0,
        spin_yields: int = DEFAULT_SPIN_YIELDS,
        sleep_min: float = DEFAULT_SLEEP_MIN,
        sleep_max: float = DEFAULT_SLEEP_MAX,
    ) -> None:
        super().__init__()
        if isinstance(segment, str):
            segment = ShmSegment.attach(segment)
        self.segment = segment
        self.host_image = ProcessImage("shm-host", catalog)
        self._on_shutdown = on_shutdown
        self.op_timeout = op_timeout
        self._alive_fn = alive_fn
        knobs = dict(
            spin_yields=spin_yields, sleep_min=sleep_min, sleep_max=sleep_max
        )
        self._h2t = _host_to_target_ring(segment, **knobs)
        self._t2h = _target_to_host_ring(segment, **knobs)
        #: Correlation id -> reply sink: ("invoke", handle) or ("sync", box).
        self._pending: dict[int, tuple[str, Any]] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: Serializes reply-ring consumption (the leader/follower gate).
        #: Reentrant so the send-stall drain can run while the sending
        #: thread itself is the leader (see :meth:`_send_stall`).
        self._drive_lock = threading.RLock()
        self._sync_local = threading.local()
        self._msg_id = 0
        self._alive = True
        self._closed = False
        self._closing = False
        #: Bound once — creating a bound method per frame costs real
        #: time at shared-memory latencies.
        self._peer_error_cb = self._peer_error
        self._send_stall_cb = self._send_stall
        self.invokes_posted = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Reactor backstop (see :meth:`_backstop_pump`): attached
        #: lazily, and only pumping while done-callbacks are armed, so
        #: the driven hot path never shares the CPU with a poller.
        self._reactor: eventloop.Reactor | None = None
        self._reactor_lock = threading.Lock()
        self._backstop_timer: Any = None
        self._backstop_interval = _BACKSTOP_MIN
        self.backstop_pumps = 0
        self._wait_ready(startup_timeout)
        self.segment.client_pid = os.getpid()
        try:
            server_digest = self._roundtrip(OP_PING, timeout=startup_timeout)
            if server_digest and bytes(server_digest) != self.host_image.digest():
                raise BackendError(
                    "offloadable catalogs differ between host and target "
                    "(both sides must import the same application modules)"
                )
        except BaseException:
            self._closing = True
            self._alive = False
            self.segment.close()
            self.segment.unlink()
            raise
        if telemetry.get() is not None:
            self.clock_sync = self._estimate_clock()
        else:
            self.clock_sync = ClockSync.identity()

    def _wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            state = self.segment.state
            if state == STATE_READY:
                return
            if state == STATE_STOPPED:
                raise BackendError("shm target already stopped")
            if self._alive_fn is not None and not self._alive_fn():
                raise BackendError("shm target process died during startup")
            if time.monotonic() >= deadline:
                raise BackendError(
                    f"shm target not ready within {timeout:g} s "
                    f"(segment {self.segment.name!r})"
                )
            time.sleep(0.001)

    def _clock_probe(self, timeout: float) -> tuple[int, int, int]:
        t0 = time.perf_counter_ns()
        body = self._roundtrip(OP_CLOCK, timeout=timeout)
        t1 = time.perf_counter_ns()
        return t0, _U64.unpack(body)[0], t1

    def _estimate_clock(
        self, rounds: int = 8, timeout: float | None = None
    ) -> ClockSync:
        per_probe = timeout if timeout is not None else (self.op_timeout or 5.0)
        try:
            return ClockSync.estimate(
                lambda: self._clock_probe(per_probe), rounds=rounds
            )
        except (RemoteExecutionError, OffloadTimeoutError, BackendError):
            return ClockSync.identity()

    # -- topology ----------------------------------------------------------
    def num_nodes(self) -> int:
        return 2

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", "shm backend host")
        self.check_target(node)
        return NodeDescriptor(
            node, f"shm:{self.segment.name}", "cpu", "shm target"
        )

    # -- liveness ----------------------------------------------------------
    def _peer_error(self) -> BackendError | None:
        """Why waiting is futile — or ``None`` while the peer is fine."""
        if self._closing:
            return None
        if not self._alive:
            # Another thread already declared the transport lost (e.g. a
            # failed send) — waiting further is pointless.
            return BackendError("shm transport lost")
        if self._alive_fn is not None:
            if not self._alive_fn():
                return BackendError("shm target process died")
        else:
            pid = self.segment.server_pid
            if pid and not _pid_alive(pid):
                return BackendError(f"shm target process {pid} died")
        if self.segment.state == STATE_STOPPED:
            return BackendError("shm target stopped serving")
        return None

    def _check_alive(self) -> None:
        if not self._alive:
            raise BackendError("shm backend is shut down")

    # -- reply plumbing ----------------------------------------------------
    def _pending_count(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def _next_corr(self) -> int:
        return next(InvokeHandle._ids)

    def _fail_pending(self, error: BaseException) -> None:
        """Declare the transport lost: mark dead, fail every expectation."""
        self._alive = False
        with self._pending_lock:
            sinks = list(self._pending.values())
            self._pending.clear()
        if not (self._closing or self._closed):
            # Unplanned loss (peer death, ring corruption): snapshot the
            # last few seconds of events before retries/failover churn
            # overwrite the evidence. Clean shutdown passes through the
            # _closing/_closed path and records nothing.
            flightrecorder.trigger(
                "peer_death",
                force=True,  # rare + catastrophic: never debounced away
                transport=self.name,
                segment=self.segment.name,
                orphaned=len(sinks),
                error=str(error),
            )
        for kind, sink in sinks:
            if kind == "invoke":
                sink.complete_with_error(error)
            else:
                sink["error"] = error
                sink["event"].set()
        self._release_backstop()

    def _send_stall(self) -> BackendError | None:
        """Stop-callback while blocked on a full request ring.

        Besides the peer-death verdict, it opportunistically drains the
        reply ring: the request ring can only stay full while the server
        is itself blocked on a full reply ring, so *someone* must
        consume replies for either side to progress. The drive lock is
        reentrant, so this works even when the stalled sender is the
        current reply-pumping leader.
        """
        error = self._peer_error()
        if error is not None:
            return error
        if self._drive_lock.acquire(blocking=False):
            try:
                ring = self._t2h
                while ring.readable():
                    op, corr, body = ring.read_frame()
                    self.bytes_received += len(body) + FRAME_OVERHEAD
                    self._dispatch_reply(op, corr, body)
            except BackendError as exc:
                if not self._closing:
                    self._fail_pending(exc)
                return exc
            finally:
                self._drive_lock.release()
        return None

    def _send(self, op: int, corr: int, *parts: Any) -> None:
        try:
            with self._send_lock:
                sent = self._h2t.write_frame(
                    op, corr, parts,
                    timeout=self.op_timeout, stop=self._send_stall_cb,
                )
        except (BackendError, OffloadTimeoutError) as exc:
            if isinstance(exc, OffloadTimeoutError):
                raise
            self._fail_pending(exc)
            raise
        self.bytes_sent += sent

    def _pump(self, wait: float) -> None:
        """Drive lock held: wait up to ``wait`` for replies, drain them.

        A peer-death verdict fails everything outstanding (which sets
        the waiters' events) instead of raising — each waiter then finds
        its own sink failed.
        """
        ring = self._t2h
        recorder = telemetry.get()
        try:
            if not ring.wait_readable(timeout=wait, stop=self._peer_error_cb):
                return
            while ring.readable():
                if recorder is None:
                    op, corr, body = ring.read_frame()
                else:
                    reply_span = telemetry.span("offload.reply", transport="shm")
                    reply_span.__enter__()
                    try:
                        op, corr, body = ring.read_frame()
                    except BaseException as exc:
                        reply_span.__exit__(type(exc), exc, exc.__traceback__)
                        raise
                    reply_span.set("bytes", len(body) + FRAME_OVERHEAD)
                    with trace_context.activate(_unsampled_reply_context(body)):
                        reply_span.__exit__(None, None, None)
                self.bytes_received += len(body) + FRAME_OVERHEAD
                self._dispatch_reply(op, corr, body)
        except BackendError as exc:
            if not self._closing:
                self._fail_pending(exc)

    def _dispatch_reply(self, op: int, corr: int, body: memoryview) -> None:
        """Complete the expectation filed under ``corr`` (any order)."""
        with self._pending_lock:
            entry = self._pending.pop(corr, None)
        if entry is None:
            telemetry.count("shm.unmatched_replies")
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
            if telemetry.get() is not None:
                telemetry.gauge("shm.pending_replies", self._pending_count())
        else:
            if op != (sink["op"] | OP_REPLY_BIT):
                sink["error"] = BackendError(
                    f"expected reply to op {sink['op']:#x}, got {op:#x}"
                )
            else:
                sink["body"] = body
            sink["event"].set()

    def _drive_until(
        self,
        done: Callable[[], bool],
        wait: Callable[[float], bool],
        timeout: float | None,
        what: str,
    ) -> None:
        """Pump (or wait on the pumping leader) until ``done()`` holds.

        ``wait(seconds)`` blocks on the expectation's completion; it is
        only called while another thread is the pumping leader. Raises
        :class:`OffloadTimeoutError` after ``timeout`` seconds — softly,
        the caller's expectation stays filed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        lock = self._drive_lock
        while not done():
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OffloadTimeoutError(
                        f"no reply through shm segment "
                        f"{self.segment.name!r} within the deadline ({what})"
                    )
            if lock.acquire(timeout=0.005):
                try:
                    if done():
                        return
                    pump_for = 0.05
                    if remaining is not None:
                        pump_for = min(pump_for, max(remaining, 0.0))
                    self._pump(pump_for)
                finally:
                    lock.release()
            else:
                # A leader is pumping; it completes us on arrival.
                wait(0.002)
            if not self._alive and not done():
                # Filed after the drain — nothing will ever match it.
                raise BackendError("shm transport lost while waiting for a reply")

    def _sync_box(self, op: int) -> dict[str, Any]:
        """A reusable per-thread expectation box for sync roundtrips.

        Reuse keeps Event construction off the hot path. A roundtrip
        that times out *abandons* its event (the stale expectation stays
        filed and may be completed later) and the thread gets a fresh
        one next time.
        """
        local = self._sync_local
        event = getattr(local, "event", None)
        if event is None:
            event = local.event = threading.Event()
        event.clear()
        return {"op": op, "event": event}

    def _roundtrip(
        self, op: int, *parts: Any, timeout: float | None = None
    ) -> memoryview:
        """Synchronous request: post, then drive until the reply matches."""
        self._check_alive()
        effective = timeout if timeout is not None else self.op_timeout
        # Leader fast path: become the reply leader *before* sending.
        # While this thread holds the drive lock nobody else can consume
        # its reply, so the expectation table can be skipped entirely —
        # the common case is that the very next frame is ours, and the
        # saved bookkeeping is a measurable slice of a shared-memory
        # RTT. Requires no recorder (the generic pump also emits the
        # per-reply ``offload.reply`` spans).
        if telemetry.get() is None and self._drive_lock.acquire(blocking=False):
            try:
                corr = next(InvokeHandle._ids)
                try:
                    with self._send_lock:
                        self.bytes_sent += self._h2t.write_frame(
                            op, corr, parts,
                            timeout=self.op_timeout, stop=self._send_stall_cb,
                        )
                except BackendError as exc:
                    self._fail_pending(exc)
                    raise
                return self._consume_inline(op, corr, effective)
            finally:
                self._drive_lock.release()
        corr = self._next_corr()
        box = self._sync_box(op)
        with self._pending_lock:
            self._pending[corr] = ("sync", box)
        try:
            self._send(op, corr, *parts)
        except BaseException:
            with self._pending_lock:
                self._pending.pop(corr, None)
            raise
        if not self._alive:
            with self._pending_lock:
                entry = self._pending.pop(corr, None)
            if entry is not None and "error" not in box:
                raise BackendError("shm transport lost during roundtrip")
        try:
            event = box["event"]
            self._drive_until(event.is_set, event.wait, effective, f"op {op:#x}")
        except OffloadTimeoutError:
            self._sync_local.event = None  # the filed box keeps it
            raise
        if "error" in box:
            raise box["error"]
        if "body" not in box:
            raise BackendError("shm transport lost during roundtrip")
        return box["body"]

    def _consume_inline(
        self, op: int, corr: int, timeout: float | None
    ) -> memoryview:
        """Drive-lock held: pump until ``corr``'s reply, returned directly.

        Replies for other callers are dispatched through the expectation
        table on the way. A timeout is soft, like :meth:`_drive_until`:
        the expectation is filed *now* (no reply can have slipped past —
        this thread held the drive lock throughout) so a later pump can
        still complete it instead of counting it unmatched.
        """
        ring = self._t2h
        deadline = None if timeout is None else time.monotonic() + timeout
        stop = self._peer_error_cb
        while True:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    with self._pending_lock:
                        self._pending[corr] = (
                            "sync", {"op": op, "event": threading.Event()},
                        )
                    raise OffloadTimeoutError(
                        f"no reply through shm segment "
                        f"{self.segment.name!r} within the deadline "
                        f"(op {op:#x})"
                    )
            try:
                if not ring.wait_readable(timeout=wait, stop=stop):
                    continue
                reply_op, reply_corr, body = ring.read_frame()
            except BackendError as exc:
                if not self._closing:
                    self._fail_pending(exc)
                raise
            self.bytes_received += len(body) + FRAME_OVERHEAD
            if reply_corr != corr:
                self._dispatch_reply(reply_op, reply_corr, body)
                continue
            if reply_op == op | OP_REPLY_BIT:
                return body
            if reply_op == OP_FAILURE:
                info = pickle.loads(body)
                raise RemoteExecutionError(
                    f"remote {info['type']}: {info['message']}",
                    remote_traceback=info.get("traceback", ""),
                )
            raise BackendError(
                f"expected reply to op {op:#x}, got {reply_op:#x}"
            )

    # -- invocation --------------------------------------------------------
    def _window_progress(self) -> Callable[[], None]:
        """Progress callback for window admission on a driven backend.

        The base window's ``acquire`` loops this instead of sleeping;
        pumping replies is what frees slots here. It also enforces the
        window timeout, since the progress path bypasses the window's
        own deadline handling.
        """
        timeout = self._window_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        limit = self.window.limit

        def progress() -> None:
            if not self._alive:
                raise BackendError(
                    "shm transport lost while waiting for a window slot"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise OffloadTimeoutError(
                    f"in-flight window full ({limit} operations outstanding) "
                    "and no completion within the deadline"
                )
            if self._drive_lock.acquire(timeout=0.005):
                try:
                    self._pump(0.005)
                finally:
                    self._drive_lock.release()

        return progress

    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        self._check_alive()
        self.check_target(node)
        # Backpressure point: pumping replies is what frees window slots.
        self._admit_invoke(
            label=functor.type_name, progress=self._window_progress()
        )
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
        # Telemetry phase ``offload.enqueue``: filing the expectation and
        # copying the frame into the request ring.
        with telemetry.span(
            "offload.enqueue", bytes=total, functor=functor.type_name,
            corr=handle.correlation_id,
        ):
            with self._pending_lock:
                self._pending[handle.correlation_id] = ("invoke", handle)
            self._register_invoke(handle)
            try:
                self._send(OP_INVOKE, handle.correlation_id, *parts)
            except BaseException as exc:
                with self._pending_lock:
                    self._pending.pop(handle.correlation_id, None)
                handle.complete_with_error(
                    exc if isinstance(exc, (BackendError, OffloadTimeoutError))
                    else BackendError(f"send failed while posting invoke: {exc}")
                )
                raise
        # A pump may have declared the transport lost between the
        # aliveness check and our registration; fail the straggler here.
        if not self._alive:
            with self._pending_lock:
                entry = self._pending.pop(handle.correlation_id, None)
            if entry is not None:
                handle.complete_with_error(
                    BackendError("shm transport lost while posting invoke")
                )
        self.invokes_posted += 1
        if telemetry.get() is not None:
            telemetry.gauge("shm.pending_replies", self._pending_count())
        return handle

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        if handle.completed:
            return
        self._check_alive()
        if not blocking:
            # Opportunistic pump: drain whatever already arrived, never
            # wait. If a leader holds the lock it completes handles for
            # everyone anyway.
            if self._drive_lock.acquire(blocking=False):
                try:
                    self._pump(0.0)
                finally:
                    self._drive_lock.release()
            return
        effective = timeout if timeout is not None else self.op_timeout
        self._drive_until(
            lambda: handle.completed, handle.wait_event,
            effective, f"invoke {handle.label}",
        )

    # -- reactor backstop --------------------------------------------------
    def _callback_armed(self, handle: InvokeHandle) -> None:
        """A done-callback was attached: make the driven client pollable.

        The shm client is *driven* — replies are consumed by whoever
        waits on them. A callback-only consumer (an asyncio awaiter
        bridged through ``Future.__await__``) never enters ``drive``,
        so nothing would pump the reply ring on its behalf. This arms a
        self-rescheduling timer on the shared reactor that
        opportunistically drains the ring until nothing is pending,
        converting the pump into a reactor-registered pollable without
        dedicating a thread to it.
        """
        with self._reactor_lock:
            if self._closed or not self._alive:
                return
            if self._reactor is None:
                self._reactor = eventloop.get_reactor()
            if self._backstop_timer is None:
                self._backstop_interval = _BACKSTOP_MIN
                self._backstop_timer = self._reactor.call_later(
                    self._backstop_interval, self._backstop_pump
                )

    def _backstop_pump(self) -> None:
        """Reactor timer: drain whatever arrived, reschedule adaptively.

        Never blocks the loop: the drive lock is taken opportunistically
        (a pumping leader already completes handles for everyone) and
        the pump itself only drains frames that are already readable.
        Cadence tightens to ``_BACKSTOP_MIN`` while replies flow and
        backs off toward ``_BACKSTOP_MAX`` while the outstanding work
        is quiet; the timer disarms once nothing is pending (re-armed
        by the next callback attachment).
        """
        with self._reactor_lock:
            self._backstop_timer = None
            if self._closed or not self._alive or self._reactor is None:
                return
        progressed = False
        if self._pending_count() and self._drive_lock.acquire(blocking=False):
            try:
                before = self.bytes_received
                self.backstop_pumps += 1
                self._pump(0.0)
                progressed = self.bytes_received != before
            finally:
                self._drive_lock.release()
        with self._reactor_lock:
            if (
                self._closed
                or not self._alive
                or self._reactor is None
                or self._backstop_timer is not None
                or not self._pending_count()
            ):
                return
            self._backstop_interval = (
                _BACKSTOP_MIN if progressed
                else min(self._backstop_interval * 2, _BACKSTOP_MAX)
            )
            self._backstop_timer = self._reactor.call_later(
                self._backstop_interval, self._backstop_pump
            )

    def _release_backstop(self) -> None:
        """Cancel the backstop and detach from the shared reactor."""
        with self._reactor_lock:
            timer, self._backstop_timer = self._backstop_timer, None
            reactor, self._reactor = self._reactor, None
        if timer is not None:
            timer.cancel()
        if reactor is not None:
            eventloop.release_reactor(reactor)

    # -- memory ------------------------------------------------------------
    def _chunk_size(self) -> int:
        # Half the ring per frame: a bulk transfer never deadlocks
        # against its own backpressure, and two chunks can overlap.
        return max(4096, self.segment.capacity // 2 - 64)

    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self.check_target(node)
        return _U64.unpack(self._roundtrip(OP_ALLOC, _U64.pack(nbytes)))[0]

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self.check_target(node)
        self._roundtrip(OP_FREE, _U64.pack(addr))

    def write_buffer(self, node: NodeId, addr: int, data: Any) -> None:
        self.check_target(node)
        view = _byte_view(data)
        chunk = self._chunk_size()
        if len(view) <= chunk:
            self._roundtrip(OP_WRITE, _U64.pack(addr), view)
            return
        # Chunked: HostedBuffers accepts offset addresses inside a live
        # allocation, so each chunk lands at addr + offset.
        for offset in range(0, len(view), chunk):
            self._roundtrip(
                OP_WRITE, _U64.pack(addr + offset), view[offset : offset + chunk]
            )

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self.check_target(node)
        chunk = self._chunk_size()
        if nbytes <= chunk:
            return bytes(
                self._roundtrip(OP_READ, _U64.pack(addr) + _U64.pack(nbytes))
            )
        out = bytearray(nbytes)
        for offset in range(0, nbytes, chunk):
            n = min(chunk, nbytes - offset)
            out[offset : offset + n] = self._roundtrip(
                OP_READ, _U64.pack(addr + offset) + _U64.pack(n)
            )
        return bytes(out)

    # -- telemetry ---------------------------------------------------------
    def fetch_target_telemetry(
        self, timeout: float | None = None, align: bool = True
    ) -> list:
        """Pull (and clear) the target server's telemetry records."""
        if align:
            self.clock_sync = self._estimate_clock(rounds=4, timeout=timeout)
        rows = pickle.loads(self._roundtrip(OP_TELEMETRY, timeout=timeout))
        records = dicts_to_records(rows)
        if align and self.clock_sync.offset_ns:
            records = align_records(records, self.clock_sync.offset_ns)
        return records

    # -- health ------------------------------------------------------------
    def ping(self, node: NodeId) -> float:
        """Round-trip an ``OP_PING`` heartbeat; returns wall seconds."""
        self.check_target(node)
        start = time.monotonic()
        self._roundtrip(OP_PING)
        return time.monotonic() - start

    def set_default_timeout(self, seconds: float | None) -> None:
        self.op_timeout = seconds

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Transport counters of this segment."""
        try:
            request_used = self._h2t.used()
            reply_used = self._t2h.used()
        except ValueError:  # mapping released by shutdown()
            request_used = reply_used = 0
        if telemetry.get() is not None:
            capacity = self.segment.capacity
            telemetry.gauge("shm.ring_fill.request", request_used / capacity)
            telemetry.gauge("shm.ring_fill.reply", reply_used / capacity)
            telemetry.gauge(
                "shm.wait.sleep_stalls",
                self._h2t.sleep_stalls + self._t2h.sleep_stalls,
            )
        return {
            "backend": self.name,
            "segment": self.segment.name,
            "ring_capacity": self.segment.capacity,
            "invokes_posted": self.invokes_posted,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "request_ring_used": request_used,
            "reply_ring_used": reply_used,
            "request_ring": _ring_state(self._h2t),
            "reply_ring": _ring_state(self._t2h),
            "pending_replies": self._pending_count(),
            "inflight": self.inflight_count,
            "inflight_limit": self.window.limit,
            # Driven client: no receiver thread here either; the async
            # bridge rides the shared reactor's backstop pump.
            "receiver_threads": 0,
            "backstop_pumps": self.backstop_pumps,
            "backstop_armed": self._backstop_timer is not None,
        }

    def introspect_target(
        self, timeout: float | None = None
    ) -> dict[str, Any]:
        """Ask the target for its live state (``OP_INTROSPECT``).

        Same transport-agnostic dict as the TCP backend's, with the
        ``rings`` block populated from the target's side of the segment.
        """
        payload = pickle.loads(self._roundtrip(OP_INTROSPECT, timeout=timeout))
        if not isinstance(payload, dict):
            raise BackendError(
                f"malformed introspection reply: {type(payload).__name__}"
            )
        return payload

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the target, fail stragglers, close and unlink the segment.

        Robust against an already-dead target: the SHUTDOWN roundtrip is
        skipped (or tolerated failing) and the segment is still closed
        and — when this process owns it — unlinked, so no ``/dev/shm``
        entry outlives the backend either way.
        """
        if self._closed:
            return
        self._closed = True
        if self._alive:
            try:
                # The server acknowledges only once nothing executes or is
                # backlogged, so invoke replies land ahead of this one.
                self._roundtrip(OP_SHUTDOWN, timeout=self.op_timeout or 10.0)
            except (BackendError, OffloadTimeoutError, RemoteExecutionError):
                pass  # server already gone or wedged
        self._closing = True
        if self._alive:
            self._fail_pending(BackendError("shm backend is shut down"))
        self._release_backstop()
        if self._on_shutdown is not None:
            self._on_shutdown()
        self.segment.close()
        self.segment.unlink()
