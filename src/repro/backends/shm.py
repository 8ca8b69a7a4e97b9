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
makes the rings lock-free without any further synchronization. A ring
holds whole frames only — the tcp frames — and works on them in place:
``publish`` packs a frame's prefix at the tail and copies its parts in
behind it, ``take`` reads the prefix at the head, checks the length and
copies the body out. So neither end needs a stream decoder, and the
whole channel contract — out-of-order completion, the in-flight window,
QoS, telemetry — composes unchanged: both ends are the tcp transport's
classes with the ring's two methods as their hooks,
:mod:`repro.backends._server` and :mod:`repro.backends._client`
(docs/architecture.md, "Client core").

Both ends poll with the paper's adaptive *spin-then-sleep* loop: a
bounded busy-spin phase (interleaved with ``sched_yield`` so a same-core
peer gets the CPU immediately — the single-core analogue of the VE's LHM
polling) followed by exponential sleep backoff for idle periods; the
spin budget and the sleep bounds are constants
(:data:`SPIN_YIELDS`, :data:`SLEEP_MIN`, :data:`SLEEP_MAX`, shared with
an asyncio loop awaiting a reply). On the
target, the thread that polls a message off the ring executes it and
goes on polling, as the VE does — no wake-up and no thread change per
message (the dispatch loop of :mod:`repro.backends._server`).

There is **no receiver thread**: whichever caller waits on a reply reads
the reply ring for everybody (the drive of
:mod:`repro.backends._client`, shared with tcp). This module supplies
its take — poll the reply ring, copy the next frame out. A ring has
no descriptor to select on, so an asyncio loop awaiting a reply polls
it, a lap per loop callback (:class:`~repro.offload.future.AwaitingLoop`).
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
# Joining the target with a timeout needs it (stdlib imports it inside
# ``Popen.wait``); loaded here, with the transport, not in ``finalize``.
import multiprocessing.connection  # noqa: F401
import os
import secrets
import struct
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

from repro.backends._client import FramedClient
from repro.backends._server import (
    _FRAME_META,
    _LEN,
    _PREFIX,
    _U64,
    DEFAULT_SERVER_WORKERS,
    FRAME_OVERHEAD,
    FramedServer,
    check_frame_length,
)
from repro.backends.base import SLEEP_MAX, SLEEP_MIN, SPIN_YIELDS
from repro.errors import BackendError, OffloadTimeoutError
from repro.ham.registry import Catalog
from repro.telemetry import recorder as telemetry

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "ShmBackend",
    "ShmRing",
    "ShmSegment",
    "ShmTargetServer",
    "spawn_shm_server",
]

_U32 = struct.Struct("<I")

#: Bytes per ring direction. Frames larger than this cannot be posted;
#: the backend chunks bulk WRITE/READ traffic to stay under it.
DEFAULT_RING_CAPACITY = 1 << 20

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


def segment_prefix(pid: int | None = None) -> str:
    """The name prefix of the segments process ``pid`` (default: this
    one) created: ``repro-<pid>-``, so a leak is traced to its owner."""
    return f"repro-{os.getpid() if pid is None else pid}-"


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
        # A process that exits without shutting its backend down still
        # releases the mapping (SharedMemory's own finalizer cannot
        # close it while ``cursors`` is exported) and, owning the
        # segment, unlinks it: nothing is left in /dev/shm for the
        # resource tracker to warn about.
        atexit.register(self._release)

    def _release(self) -> None:
        self.close()
        self.unlink()

    @classmethod
    def create(
        cls, capacity: int = DEFAULT_RING_CAPACITY, name: str | None = None
    ) -> "ShmSegment":
        """Create (and own) a fresh segment sized for two rings, named
        ``name`` or, by default, ``repro-<pid>-<random>``."""
        if capacity < 4096:
            raise BackendError(
                f"ring capacity must be at least 4096 bytes, got {capacity}"
            )
        if name is None:
            name = segment_prefix() + secrets.token_hex(4)
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
        if self._unlinked or not self._owner:
            atexit.unregister(self._release)

    def unlink(self) -> None:
        """Remove the segment system-wide (owner only, idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if self._closed:
            atexit.unregister(self._release)


class ShmRing:
    """One lock-free SPSC frame pipe inside a segment.

    The producer owns the tail cursor, the consumer the head cursor;
    both are monotonic byte counters living in the segment header (each
    on its own cache line). A frame becomes visible atomically: its
    bytes are copied in first, the tail published last
    (:meth:`publish`); the consumer takes the frame at the head
    (:meth:`take`). Waiting — for a frame on the consumer side, for
    space on the producer side — is the adaptive spin-then-sleep loop
    described in the module docstring.
    """

    def __init__(
        self,
        segment: ShmSegment,
        tail_off: int,
        head_off: int,
        data_off: int,
        *,
        name: str,
    ) -> None:
        self._buf = segment.buf
        self._cursors = cursors = segment.cursors
        self._tail_idx = tail_off // 8
        self._head_idx = head_off // 8
        self._data_off = data_off
        self._capacity = segment.capacity
        self._name = name
        # Each side *owns* one cursor — nobody else ever writes it — so
        # its current value can live in a plain attribute and skip a
        # shared-memory load per operation. The peer's cursor must of
        # course always be re-read from the segment.
        self._tail = cursors[self._tail_idx]
        self._head = cursors[self._head_idx]
        # Spin-vs-sleep accounting: how many waits were satisfied inside
        # the busy-spin phase versus spilling into the sleep backoff (a
        # "stall"), how long the stalls slept in total, and how many
        # ``sched_yield`` laps the waits took. Only touched when a wait
        # actually happened — the no-wait fast path (data or space
        # already there) costs nothing extra.
        self.spin_waits = 0
        self.sleep_stalls = 0
        self.stalled_s = 0.0
        self.laps = 0
        self._empty_polls = 0

    def _account_wait(self, spins: int, slept: float) -> None:
        """Book one completed wait into the spin/stall counters."""
        if spins > SPIN_YIELDS:
            self.sleep_stalls += 1
            self.stalled_s += slept
            self.laps += SPIN_YIELDS
        else:
            self.spin_waits += 1
            self.laps += spins

    # -- cursors -----------------------------------------------------------
    def readable(self) -> bool:
        """Whether at least one frame awaits the consumer."""
        return self._cursors[self._tail_idx] != self._head

    def used(self) -> int:
        """Bytes currently queued (tail - head)."""
        cursors = self._cursors
        return cursors[self._tail_idx] - cursors[self._head_idx]

    # -- byte copies across the ring's end (wrap-aware) ---------------------
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

    def _bytes_at(self, counter: int, n: int) -> Any:
        """The ``n`` bytes at ``counter``, copied out once (the caller
        checked they are published)."""
        buf = self._buf
        cap = self._capacity
        base = self._data_off
        pos = counter % cap
        end = pos + n
        if end <= cap:
            return bytes(buf[base + pos : base + end])
        out = bytearray(n)
        first = cap - pos
        out[:first] = buf[base + pos : base + cap]
        out[first:] = buf[base : base + end - cap]
        return out

    # -- consumer side -----------------------------------------------------
    def wait_readable(
        self,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> bool:
        """Poll until a frame is available; ``False`` on timeout.

        ``stop`` is consulted every :data:`_CHECK_MASK`+1 iterations (of
        the wait, or zero-``timeout`` calls that found nothing);
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
            # No time to wait: a caller that only ever polls (a
            # ``test()`` loop, an awaiting asyncio loop) learns of
            # a dead peer at the same cadence as one that spins.
            self._empty_polls += 1
            if stop is not None and not self._empty_polls & _CHECK_MASK:
                error = stop()
                if error is not None:
                    if cursors[tail_idx] != head:
                        return True
                    raise error
            return False
        spin = SPIN_YIELDS
        yield_cpu = os.sched_yield
        sleep_s = SLEEP_MIN
        # The deadline clock is read lazily, at the first bookkeeping
        # interval — the overwhelmingly common wait is a handful of
        # yields, which shouldn't pay for timeout arithmetic.
        deadline: float | None = None
        spins = 0
        slept = 0.0
        while True:
            if cursors[tail_idx] != head:
                if spins <= spin:  # _account_wait's spin phase, inline
                    self.spin_waits += 1
                    self.laps += spins
                else:
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
                sleep_s = min(sleep_s + sleep_s, SLEEP_MAX)
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

    def take(
        self,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> tuple[int, int, bytes, bool] | None:
        """The frame at the head, ``(op, corr, body, more)``, waiting up
        to ``timeout`` for one (:meth:`wait_readable`, which consults
        ``stop``); ``None`` when the time ran out.

        The body is copied out before the head moves: the space is free
        for the producer at once, and a value decoded from the body may
        stay a view into it. ``more``: another frame was published
        behind this one already. A ring holds whole frames only, so the
        frame at the head may fill no more than the ring holds: a length
        beyond that, or too short for the frame's own header, raises
        :class:`BackendError` (:func:`check_frame_length`).
        """
        cursors = self._cursors
        head = self._head
        ready = cursors[self._tail_idx] - head
        if not ready:
            if not self.wait_readable(timeout, stop):
                return None
            ready = cursors[self._tail_idx] - head
        cap = self._capacity
        pos = head % cap
        start = self._data_off + pos
        if pos + FRAME_OVERHEAD <= cap:
            length, op, corr = _PREFIX.unpack_from(self._buf, start)
        else:  # the prefix wraps
            length, op, corr = _PREFIX.unpack(self._bytes_at(head, FRAME_OVERHEAD))
        check_frame_length(length, ready)
        size = _LEN.size + length
        if pos + size <= cap:
            body = bytes(self._buf[start + FRAME_OVERHEAD : start + size])
        else:
            body = self._bytes_at(head + FRAME_OVERHEAD, length - _FRAME_META)
        self._head = head = head + size
        cursors[self._head_idx] = head
        return op, corr, body, ready != size

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
        spin = SPIN_YIELDS
        yield_cpu = os.sched_yield
        sleep_s = SLEEP_MIN
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
                sleep_s = min(sleep_s + sleep_s, SLEEP_MAX)
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

    def _make_room(
        self,
        total: int,
        timeout: float | None,
        stop: Callable[[], BaseException | None] | None,
    ) -> None:
        """Wait until ``total`` bytes fit — the transport-level
        backpressure under the in-flight window, recorded as a
        ``shm.ring_wait`` span when telemetry is on. A frame larger than
        the ring can never fit and raises :class:`BackendError`: bulk
        data travels chunked (see :meth:`ShmBackend.write_buffer`)."""
        if total > self._capacity:
            raise BackendError(
                f"frame of {total} bytes exceeds shm ring capacity "
                f"{self._capacity} — raise capacity= or stage bulk data "
                "through put/get"
            )
        if telemetry.get() is not None:
            with telemetry.span("shm.ring_wait", ring=self._name, bytes=total):
                self._await_space(total, timeout, stop)
        else:
            self._await_space(total, timeout, stop)

    def publish(
        self,
        op: int,
        corr: int,
        body: Any = b"",
        *more: Any,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> None:
        """Publish one frame in place: the ``op``/``corr`` prefix packed
        at the tail, ``body`` and the parts ``more`` (byte-sized, each
        copied once) behind it, the tail stored last — the consumer
        never sees part of a frame. Blocks (spin-then-sleep, ``stop``
        consulted) while the ring lacks space (:meth:`_make_room`)."""
        size = len(body)
        length = _FRAME_META + (size + sum(map(len, more)) if more else size)
        total = _LEN.size + length
        cap = self._capacity
        tail = self._tail
        if cap - (tail - self._cursors[self._head_idx]) < total:
            self._make_room(total, timeout, stop)
        pos = tail % cap
        if pos + FRAME_OVERHEAD + size <= cap:
            buf = self._buf
            at = self._data_off + pos
            _PREFIX.pack_into(buf, at, length, op, corr)
            at += FRAME_OVERHEAD
            buf[at : at + size] = body
            cursor = tail + FRAME_OVERHEAD + size
        else:  # the frame wraps
            cursor = self._copy_in(
                self._copy_in(tail, _PREFIX.pack(length, op, corr)), body
            )
        for part in more:
            cursor = self._copy_in(cursor, part)
        self._tail = tail = tail + total
        # Publish last: the consumer never sees a partial frame.
        self._cursors[self._tail_idx] = tail

    def write(
        self,
        frames: list,
        total: int,
        *,
        timeout: float | None = None,
        stop: Callable[[], BaseException | None] | None = None,
    ) -> None:
        """Publish ``total`` bytes of whole frames, framed already (a
        burst of replies the target held), in one tail store."""
        if self._capacity - (self._tail - self._cursors[self._head_idx]) < total:
            self._make_room(total, timeout, stop)
        cursor = self._tail
        for part in frames:
            cursor = self._copy_in(cursor, part)
        self._tail = cursor
        self._cursors[self._tail_idx] = cursor


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
        "laps": ring.laps,
    }


def _host_to_target_ring(segment: ShmSegment) -> ShmRing:
    return ShmRing(
        segment, _OFF_H2T_TAIL, _OFF_H2T_HEAD, _DATA_OFFSET, name="h2t"
    )


def _target_to_host_ring(segment: ShmSegment) -> ShmRing:
    return ShmRing(
        segment, _OFF_T2H_TAIL, _OFF_T2H_HEAD, _DATA_OFFSET + segment.capacity,
        name="t2h",
    )


class ShmTargetServer(FramedServer):
    """The target-side polling loop: one client, concurrent execution.

    The mirror image of :class:`~repro.backends.tcp.TcpTargetServer`
    over rings instead of a socket, on the same dispatch loop
    (:class:`~repro.backends._server.FramedServer`): the thread that
    polls an INVOKE off the request ring executes it, posts the reply
    itself and goes on polling — the paper's VE loop. Another thread
    takes the polling over only when that pays (the previous invocation
    ran long, or the poller is stuck in this one), so kernels still
    overlap, up to ``workers`` at once, replies in completion order,
    tagged with their correlation ids — and
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
    ) -> None:
        super().__init__(catalog, workers)
        self.segment = segment
        self._recv = _host_to_target_ring(segment)
        self._send = _target_to_host_ring(segment)
        #: The hooks are the rings' own methods, bound once — creating a
        #: bound method per frame costs real time at shared-memory
        #: latencies, and no frame of this class runs between publishing
        #: a reply and waiting for the next request (the rule of
        #: placement, docs/architecture.md).
        self._take = functools.partial(self._recv.take, None, self._client_gone)
        self._publish = functools.partial(self._send.publish, stop=self._client_gone)
        self._transmit = functools.partial(self._send.write, stop=self._client_gone)
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

    @property
    def _frame_limit(self) -> int:
        return self.segment.capacity

    def _client_gone(self) -> BackendError | None:
        pid = self.segment.client_pid
        if pid and not _pid_alive(pid):
            return BackendError(f"shm client process {pid} is gone")
        return None

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
    telemetry.disable()  # the host's records and locks are not ours
    server = ShmTargetServer(segment, catalog=catalog, workers=workers)
    try:
        server.serve_forever()
    finally:
        segment.close()


def _await_ready(
    segment: ShmSegment, timeout: float, alive_fn: Callable[[], bool] | None
) -> None:
    """Poll the state word until the target serves (``BackendError`` if
    it stops, dies or stays silent for ``timeout`` seconds first)."""
    deadline = time.monotonic() + timeout
    while True:
        state = segment.state
        if state == STATE_READY:
            return
        if state == STATE_STOPPED:
            raise BackendError("shm target already stopped")
        if alive_fn is not None and not alive_fn():
            raise BackendError("shm target process died during startup")
        if time.monotonic() >= deadline:
            raise BackendError(
                f"shm target not ready within {timeout:g} s "
                f"(segment {segment.name!r})"
            )
        time.sleep(0.001)


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
    try:
        _await_ready(segment, startup_timeout, process.is_alive)
    except BackendError:
        process.terminate()
        process.join(timeout=5)
        segment.close()
        segment.unlink()
        raise
    return process, segment


class ShmBackend(FramedClient):
    """Client side of the shared-memory backend (one target).

    Replies are read by whoever waits for one
    (:class:`~repro.backends._client.FramedClient`). On the posting
    side a full request ring is transport backpressure *under* the
    in-flight window — the window is what callers normally hit first.

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
    """

    name = "shm"
    _peer_kind = "segment"

    def __init__(
        self,
        segment: ShmSegment | str,
        catalog: Catalog | None = None,
        on_shutdown: Callable[[], None] | None = None,
        *,
        op_timeout: float | None = None,
        alive_fn: Callable[[], bool] | None = None,
        startup_timeout: float = 10.0,
    ) -> None:
        if isinstance(segment, str):
            segment = ShmSegment.attach(segment)
        super().__init__(catalog, on_shutdown, op_timeout)
        self.segment = segment
        self._alive_fn = alive_fn
        self._h2t = _host_to_target_ring(segment)
        self._t2h = _target_to_host_ring(segment)
        #: Bound once, as the target's hooks: ``_next_frame(timeout)``
        #: takes the next reply, polling the ring (spin, then sleep), and
        #: raises for a peer found dead or stopped, after whatever it
        #: still published has been taken.
        self._next_frame = functools.partial(self._t2h.take, stop=self._peer_error)
        self._send_stall_cb = self._send_stall
        _await_ready(segment, startup_timeout, alive_fn)
        self.segment.client_pid = os.getpid()
        self._handshake(startup_timeout)

    @property
    def peer(self) -> str:
        return self.segment.name

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

    # -- how frames leave --------------------------------------------------
    @property
    def _frame_limit(self) -> int:
        return self.segment.capacity

    def _send_stall(self) -> BackendError | None:
        """Stop-callback while blocked on a full request ring.

        Besides the peer-death verdict, it opportunistically drains the
        reply ring: the request ring can only stay full while the server
        is itself blocked on a full reply ring, so *someone* must
        consume replies for either side to progress. The drive lock is
        reentrant, so this works even when the stalled sender is the
        current reply-pumping leader.
        """
        self._poll()
        return self._peer_error()

    def _send(self, op: int, corr: int, *parts: Any) -> None:
        """Publish one request in place on the request ring, now."""
        try:
            with self._send_lock:
                self._h2t.publish(
                    op, corr, *parts, timeout=self.op_timeout,
                    stop=self._send_stall_cb,
                )
        except BackendError as exc:  # a ring that stays full only times out
            self._fail_pending(exc)
            raise

    #: Nothing batches on a ring: an invoke frame leaves like any other.
    _post_frame = _send

    # -- lifecycle ---------------------------------------------------------
    def _close_transport(self) -> None:
        """Close and — when this process owns it — unlink the segment,
        so no ``/dev/shm`` entry outlives the backend. (Not in
        ``_detach``: other threads may still be polling the rings.)"""
        self.segment.close()
        self.segment.unlink()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Transport counters of this segment."""
        try:
            request_used = self._h2t.used()
            reply_used = self._t2h.used()
        except ValueError:  # mapping released by shutdown()
            request_used = reply_used = 0
        return {
            "backend": self.name,
            "segment": self.peer,
            "ring_capacity": self.segment.capacity,
            "invokes_posted": self.invokes_posted,
            # The cursors this side owns count every byte it moved.
            "bytes_sent": self._h2t._tail,
            "bytes_received": self._t2h._head,
            "request_ring_used": request_used,
            "reply_ring_used": reply_used,
            "request_ring": _ring_state(self._h2t),
            "reply_ring": _ring_state(self._t2h),
            "pending_replies": self._pending_count(),
            "backstop_pumps": self.loop_polls,  # an awaiting loop's polls
        }
