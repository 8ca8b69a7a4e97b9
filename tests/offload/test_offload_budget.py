"""Structural budget of one default-path offload — no clock is read.

With telemetry off, no ``ResiliencePolicy`` and no ``QoSConfig``, one
``sync`` on the in-process backend is pure framework overhead: the layer
whose cost is added to *every* offload on every transport. What "free
when off" promises there is structural (docs/observability.md): no
generator context manager, no ``threading.Event``, no lock taken to
compute a value that is thrown away, and a bounded number of calls. This
test counts those things under ``sys.setprofile`` instead of timing
them, so it gives the same verdict on a loaded 1-CPU box as on a quiet
one; the wall-clock figures live in ``perfbench`` (``sync_local``).
"""

import contextlib
import functools
import gc
import json
import os
import select
import signal
import threading
import time

import pytest

from repro.backends import LocalBackend, TcpBackend, spawn_local_server
from repro.backends.shm import ShmBackend, ShmRing, ShmSegment, ShmTargetServer
from repro.backends.tcp import TcpTargetServer
from repro.ham import f2f
from repro.offload import QoSConfig, Runtime, TenantPolicy
from repro.offload import api as offload_api
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext

from tests import apps
from tests.callcount import CallCounts, profile_calls
from tests.fresh import fresh_python

#: Calls (Python + builtin, the count ``cProfile`` reports) of one warm
#: ``sync(1, f2f(add, 1, 2))``: 46 on CPython 3.11 (no trace asked for
#: and no span entered while telemetry is off, the tables', the
#: tenant's, the liveness and the node's "nothing to do" read by
#: attribute, the INVOKE built by its compiled codec in one ``pack``, a
#: scalar-only argument block passed to the kernel unresolved, and the
#: scalar RESULT packed and read in one step each). The ceiling sits
#: ~5 % above; raise it only together with a perfbench run that shows
#: the cost.
MAX_CALLS = 53

#: acquire + the slot's return (a plain sync registers no handle).
MAX_WINDOW_LOCK_ACQUISITIONS = 2

#: The same offload with telemetry set up by ``init`` itself
#: (``telemetry=True``: the recorder): calls, and locks taken (every
#: ``with lock`` / ``lock.acquire()``, telemetry's and the window's
#: alike). On CPython 3.11: 105 calls and 3 locks — three phases
#: stamped into one record, the target's execute time read off its
#: version-3 reply, the record committed with its folds and counters
#: under one lock, and the window's two. The call ceiling sits ~5 %
#: above, the lock ceiling at the figure (5 % of it is less than one
#: lock).
MAX_TRACED_CALLS = 110
MAX_TRACED_LOCKS = 3

#: Records one traced offload appends, all in one commit: on ``local``
#: the serialize, transport and deserialize phases and the target's
#: execute; a framed transport adds ``offload.enqueue`` and
#: ``offload.reply``.
LOCAL_RECORDS, FRAMED_RECORDS = 4, 6


def _warm_runtime() -> Runtime:
    assert not telemetry.enabled()
    runtime = Runtime(LocalBackend())
    for _ in range(50):
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    return runtime


def _profile_one_offload(runtime: Runtime) -> CallCounts:
    """What one ``sync`` does, counted (see ``tests/callcount.py``)."""
    counts = profile_calls(lambda: runtime.sync(1, f2f(apps.add, 1, 2)))
    assert counts.value == 3
    return counts


class _CountingLock:
    """Stands in for ``InflightWindow._lock`` and counts acquisitions."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        self.acquisitions += bool(acquired)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestDefaultPathBudget:
    def test_call_budget_and_no_heavy_constructs(self):
        runtime = _warm_runtime()
        try:
            counts = _profile_one_offload(runtime)
        finally:
            runtime.shutdown()
        assert counts.constructed == []
        assert counts.calls <= MAX_CALLS, (
            f"one default-path offload made {counts.calls} calls (budget "
            f"{MAX_CALLS}): something on the shared host path got more "
            "expensive — see tests/offload/test_offload_budget.py"
        )

    def test_window_lock_taken_twice(self):
        runtime = _warm_runtime()
        window = runtime.window
        counting = window._lock = _CountingLock(window._lock)
        try:
            assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        finally:
            runtime.shutdown()
        assert window.in_flight == 0
        # in_flight above is the test's own, third, acquisition.
        assert counting.acquisitions - 1 <= MAX_WINDOW_LOCK_ACQUISITIONS

    def test_budget_profiler_sees_the_banned_constructs(self):
        """The detector itself works: it reports what it is meant to ban."""

        @contextlib.contextmanager
        def scope():
            yield

        class _Chatty:
            def sync(self, node, functor):
                with scope():
                    threading.Event()
                lock = threading.Lock()
                with lock:
                    pass
                lock.acquire()
                lock.release()
                return 3

        counts = _profile_one_offload(_Chatty())
        assert counts.constructed == [
            "contextlib._GeneratorContextManager", "threading.Event",
        ]
        assert counts.calls > 0
        assert counts.locks == 2


#: One warm ``sync(1, functor, tenant="gold")`` on ``local`` under a
#: ``QoSConfig`` that rate-limits gold, the functor built before the
#: count: 52 calls and 3 locks on CPython 3.11 (the plain sync's 2, plus
#: admission's one: the bucket lookup, its refill and the admitted count
#: share the controller's lock). The tenant is a bare id read by
#: ``_offload``. The ceiling sits ~5 % above.
MAX_QOS_TENANT_SYNC_CALLS = 59
QOS_TENANT_SYNC_LOCKS = 3


def test_tenant_tagged_qos_sync_call_budget():
    config = QoSConfig(tenants={"gold": TenantPolicy(rate=1e9, burst=1e9)})
    runtime = Runtime(LocalBackend(), qos=config)
    try:
        for _ in range(50):
            assert runtime.sync(1, f2f(apps.add, 1, 2), tenant="gold") == 3
        functor = f2f(apps.add, 1, 2)
        gc.collect()  # no earlier test's garbage is finalized in the count
        counts = profile_calls(lambda: runtime.sync(1, functor, tenant="gold"))
        assert counts.value == 3
        assert runtime.stats()["qos"]["admission"]["gold"]["admitted"] == 51
    finally:
        runtime.shutdown()
    assert counts.constructed == []
    assert counts.locks == QOS_TENANT_SYNC_LOCKS
    assert counts.calls <= MAX_QOS_TENANT_SYNC_CALLS, (
        f"one warm tenant-tagged QoS sync made {counts.calls} calls "
        f"(budget {MAX_QOS_TENANT_SYNC_CALLS})"
    )


#: Calls of one warm ``sync(1, f2f(echo, 7))`` on a framed transport,
#: CPython 3.11: 53 on shm, 67 on tcp — one frame packed by the client
#: core, sized once, sent, and read back by the one parser, which tells
#: "nothing held" by attribute. The wait for the reply counts as one
#: call however long the target takes. The ceilings sit ~5 % above.
MAX_FRAMED_SYNC_CALLS = {"shm": 58, "tcp": 72}

#: The same sync traced (``telemetry=True``), host side: 112 calls and
#: 5 locks on shm, 126 and 5 on tcp (CPython 3.11) — one trace minted,
#: five phases stamped into one record (serialize, enqueue, transport,
#: the leader's own reply, deserialize), the target's execute read off
#: the version-3 reply and placed in the round trip, and the six
#: committed with their folds and counters under one lock. The call
#: ceilings sit ~5 % above, the lock ceiling at the figure.
MAX_TRACED_FRAMED_SYNC_CALLS = {"shm": 118, "tcp": 132}
MAX_TRACED_FRAMED_SYNC_LOCKS = 5


#: How long the framed rows stop the target during the profiled sync.
STALL_S = 0.02


def _profile_stalled_sync(runtime: Runtime, pid: int) -> CallCounts:
    """One warm ``sync(1, f2f(echo, 7))``, counted while its target
    (``pid``) is stopped: ``SIGSTOP`` before the sync posts, ``SIGCONT``
    from a timer thread :data:`STALL_S` later. The sync waits that long
    for its reply — on shm in the reply ring's spin, then its sleep — so
    the count holds however slow the target is. The ring's wait is
    opaque (see ``tests/callcount.py``): its laps are the target's time,
    not the host's path."""
    backend = runtime.backend
    ring = backend._t2h if isinstance(backend, ShmBackend) else None
    laps = ring.laps if ring is not None else 0
    gc.collect()  # no earlier test's garbage is finalized in the count
    os.kill(pid, signal.SIGSTOP)
    resume = threading.Timer(STALL_S, os.kill, (pid, signal.SIGCONT))
    resume.start()
    try:
        counts = profile_calls(lambda: runtime.sync(1, f2f(apps.echo, 7)),
                               opaque=(ShmRing.wait_readable,))
    finally:
        resume.cancel()
        os.kill(pid, signal.SIGCONT)
    if ring is not None:
        assert ring.laps > laps  # the sync did wait for the stopped target
    return counts


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_plain_sync_files_nothing_on_framed_transports(transport):
    """A warm sync on a framed transport reads its own reply inline: no
    handle, future or event is built, the correlation table's lock is
    never taken, and the calls stay within the transport's budget, also
    with the target stopped while the host waits."""
    runtime = offload_api.init(transport)
    try:
        for i in range(50):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        backend = runtime.backend
        pid = backend.introspect_target()["pid"]
        counting = backend._pending_lock = _CountingLock(backend._pending_lock)
        counts = _profile_stalled_sync(runtime, pid)
        assert counts.value == 7
        assert counts.constructed == []
        assert counting.acquisitions == 0
        assert runtime.window.in_flight == 0
        assert counts.calls <= MAX_FRAMED_SYNC_CALLS[transport], (
            f"one warm {transport} sync made {counts.calls} calls (budget "
            f"{MAX_FRAMED_SYNC_CALLS[transport]})"
        )
    finally:
        offload_api.finalize()


#: What "free when off" means on the host: an untraced offload enters no
#: span, not even the shared no-op one.
SPAN_CALLS = {"span", "__enter__", "__exit__"}


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_untraced_sync_enters_no_span(transport):
    """The host's twin of the target's row below: with no recorder and
    no trace context, a warm sync calls no ``span`` and enters or leaves
    no context manager of telemetry's."""
    assert not telemetry.enabled()
    runtime = offload_api.init(transport)
    try:
        for i in range(50):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        counts = profile_calls(lambda: runtime.sync(1, f2f(apps.echo, 7)))
        assert counts.value == 7
        assert not SPAN_CALLS & set(counts.python), counts.python
    finally:
        offload_api.finalize()


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_untraced_async_get_enters_no_span(transport):
    """The same guard for ``async_`` + ``get``: the post, the wait and
    the settle enter no span and activate no trace while nothing
    records."""
    assert not telemetry.enabled()
    runtime = offload_api.init(transport)
    try:
        for i in range(50):
            assert runtime.async_(1, f2f(apps.echo, i)).get() == i
        counts = profile_calls(lambda: runtime.async_(1, f2f(apps.echo, 7)).get())
        assert counts.value == 7
        assert not (SPAN_CALLS | {"activate"}) & set(counts.python), counts.python
    finally:
        offload_api.finalize()


#: Calls of one warm ``async_(1, f2f(echo, 7)).get()``, CPython 3.11: 60
#: on local, 72 on shm, 89 on tcp — a sync's path plus the handle, the
#: future and the window's register and release; the tenant, liveness
#: and node read by attribute, no span entered and no trace activated
#: while nothing records. The ceilings sit ~5 % above.
MAX_ASYNC_GET_CALLS = {"local": 68, "shm": 79, "tcp": 97}

#: Calls per offload of a batch of 64 ``async_`` posts on tcp, then their
#: 64 ``get``: 69.4 on CPython 3.11 — the coalescer batches the requests
#: and the target answers each burst in one write, so a waiter's reads
#: complete several replies each. The ceiling sits ~5 % above.
MAX_PIPELINED_TCP_CALLS = 77


def _reply_arrived(backend) -> bool:
    """Whether a reply waits in the pipe, not read yet."""
    if isinstance(backend, ShmBackend):
        return backend._t2h.readable()
    if isinstance(backend, TcpBackend):
        return bool(select.select([backend._sock], [], [], 0)[0])
    return True


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_async_get_call_budget(transport):
    """Counted in two halves, the post and the ``get``, with the reply
    let in between: how long a waiter spins for it is the target's
    time, not the host's path."""
    runtime = offload_api.init(transport)
    try:
        for i in range(50):
            assert runtime.async_(1, f2f(apps.echo, i)).get() == i
        gc.collect()  # no earlier test's garbage is finalized in the count
        post = profile_calls(lambda: runtime.async_(1, f2f(apps.echo, 7)))
        _within(lambda: _reply_arrived(runtime.backend), "no reply arrived")
        got = profile_calls(lambda: post.value.get())
        assert got.value == 7
        calls = post.calls + got.calls
        assert calls <= MAX_ASYNC_GET_CALLS[transport], (
            f"one warm {transport} async_+get made {calls} calls "
            f"(budget {MAX_ASYNC_GET_CALLS[transport]})"
        )
    finally:
        offload_api.finalize()


def test_pipelined_tcp_call_budget_per_offload():
    runtime = offload_api.init("tcp")

    def batch():
        futures = [runtime.async_(1, f2f(apps.echo, i)) for i in range(64)]
        return [future.get() for future in futures]

    try:
        for _ in range(20):
            assert batch() == list(range(64))
        gc.collect()
        counts = profile_calls(batch)
        assert counts.value == list(range(64))
        per_offload = counts.calls / 64
        assert per_offload <= MAX_PIPELINED_TCP_CALLS, (
            f"a 64-deep tcp batch made {per_offload:.1f} calls per offload "
            f"(budget {MAX_PIPELINED_TCP_CALLS})"
        )
    finally:
        offload_api.finalize()


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_traced_sync_on_framed_transports(transport):
    """The traced twin of the row above, counted on the host with the
    target stopped for the same 20 ms."""
    runtime = offload_api.init(transport, telemetry=True)
    try:
        for i in range(50):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        pid = runtime.backend.introspect_target()["pid"]
        counts = _profile_stalled_sync(runtime, pid)
        assert counts.value == 7
        assert counts.constructed == []
        assert counts.calls <= MAX_TRACED_FRAMED_SYNC_CALLS[transport], (
            f"one traced {transport} sync made {counts.calls} calls (budget "
            f"{MAX_TRACED_FRAMED_SYNC_CALLS[transport]}): telemetry's own "
            "cost per offload grew — see docs/observability.md, 'What "
            "tracing costs'"
        )
        assert counts.locks <= MAX_TRACED_FRAMED_SYNC_LOCKS
    finally:
        offload_api.finalize()
        telemetry.disable()


#: Calls of one ``_execute_booked`` of an ``echo`` INVOKE on the target,
#: (untraced, v2 header). CPython 3.11: 26 and 33 on shm, 37 and 44 on
#: tcp. The v2 header costs its trace fields' decode and re-encode into
#: the version-3 reply and two clock reads: no context is built, no span
#: entered, the recorder not read, a scalar-only argument block meets no
#: resolver, a scalar reply is packed in one step, and the shutdown
#: drain is notified only while a shutdown waits. The ceilings sit ~5 %
#: above.
MAX_TARGET_INVOKE_CALLS = {"shm": (28, 35), "tcp": (39, 46)}

#: The receive half of the target's round: one ``_next_frame`` that finds
#: the next request already there — the wait, ``fill``, the source's
#: ``recv``, ``next_frame``. CPython 3.11: 8 on shm and on tcp.
#: "Anything left?" is an attribute test on the parser, and the
#: parser's data is measured once per frame. The ceilings sit at the
#: figure: 5 % of it is less than one call.
MAX_TARGET_READ_CALLS = {"shm": 8, "tcp": 8}


def _within(condition, failure: str) -> None:
    """Poll ``condition`` for up to 10 s."""
    for _ in range(10_000):
        if condition():
            return
        time.sleep(0.001)
    raise AssertionError(failure)


class TestTargetInvokeBudget:
    """One invocation on an in-process target, counted on its reader."""

    @pytest.fixture(params=["shm", "tcp"])
    def target(self, request):
        transport = request.param
        server_class = ShmTargetServer if transport == "shm" else TcpTargetServer

        class Counting(server_class):
            profiled: list[CallCounts] = []
            reads: list[CallCounts] = []
            #: Set by a test: the first read after that many counted
            #: invocations waits for ``hold``, and is counted.
            hold_after: int | None = None
            hold = threading.Event()

            def _execute_booked(self, corr, body, me):
                booked = super()._execute_booked
                counts = profile_calls(lambda: booked(corr, body, me))
                self.profiled.append(counts)
                return counts.value

            def _next_frame(self):
                if self.hold_after is None or len(self.profiled) < self.hold_after:
                    return super()._next_frame()
                self.hold_after = None
                self.hold.wait()
                counts = profile_calls(super()._next_frame)
                self.reads.append(counts)
                return counts.value

        if transport == "shm":
            segment = ShmSegment.create()
            segment.client_pid = os.getpid()
            server = Counting(segment, workers=1)
        else:
            server = Counting(workers=1)
        # No invocation "ran long", profiled or not: the reader keeps
        # the reading, and no hand-off lands in a counted invocation.
        server.clock_ns = lambda: 0
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        join = functools.partial(thread.join, 10.0)
        backend = (ShmBackend(segment, on_shutdown=join) if transport == "shm"
                   else TcpBackend(server.address, on_shutdown=join))
        runtime = Runtime(backend)
        yield transport, runtime, server
        runtime.shutdown()
        thread.join(10.0)
        assert not thread.is_alive()

    @staticmethod
    def _one_invocation(runtime, server):
        """The counts of the next invocation's ``_execute_booked``, read
        once the reader has un-booked it (the reply comes first)."""
        # The reply of the last invocation comes before its count: wait
        # for that count, so that the next one is this invocation's.
        _within(lambda: len(server.profiled) == runtime.backend.invokes_posted,
                "the target never finished the last invocation")
        gc.collect()  # no earlier test's garbage is finalized in the count
        before = len(server.profiled)
        assert runtime.sync(1, f2f(apps.echo, 7)) == 7
        _within(lambda: len(server.profiled) > before,
                "the target never finished the invocation")
        return server.profiled[before]

    def test_untraced_and_v2_header_while_the_target_does_not_record(self, target):
        transport, runtime, server = target
        assert not telemetry.enabled()
        for i in range(20):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        untraced = self._one_invocation(runtime, server)
        # A trace active on the caller rides the v2 header even while
        # nothing records.
        with trace_context.activate(TraceContext(0xABC, 5)):
            traced = self._one_invocation(runtime, server)
        ceilings = MAX_TARGET_INVOKE_CALLS[transport]
        assert untraced.calls <= ceilings[0] and traced.calls <= ceilings[1], (
            f"one {transport} invocation made {untraced.calls} calls "
            f"untraced, {traced.calls} with a v2 header (budget {ceilings})"
        )
        # No context built (``__init__``) or activated, no span entered.
        for counts in (untraced, traced):
            assert not {"__init__", "activate", "span", "__enter__",
                        "notify_all"} & set(counts.python), counts.python

    def test_the_next_read_of_the_round(self, target):
        """The reader's receive half, counted on a request already in the
        pipe when the read starts (no spin, no blocking ``recv``)."""
        transport, runtime, server = target
        for i in range(20):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        # The reader runs one more after these, then stops at ``hold``.
        server.hold_after = 21
        try:
            assert runtime.sync(1, f2f(apps.echo, 1)) == 1
            future = runtime.async_(1, f2f(apps.echo, 7))
            corr = future._handle.correlation_id
            pending = ((lambda: server._recv.readable()) if transport == "shm"
                       else (lambda: select.select([server._conn], [], [], 0)[0]))
            _within(pending, "the request never reached the target")
        finally:
            server.hold.set()  # a failed test leaves no reader parked
        assert future.get() == 7
        (read,) = server.reads
        assert read.value[1] == corr
        assert 0 < read.calls <= MAX_TARGET_READ_CALLS[transport], (
            f"one {transport} read made {read.calls} calls "
            f"(budget {MAX_TARGET_READ_CALLS[transport]}): {read.python}"
        )


class TestTracedPathBudget:
    """The traced twin: what switching the instrument on may cost."""

    @pytest.fixture
    def traced_runtime(self):
        def start(backend):
            runtime = offload_api.init(backend, telemetry=True)
            for _ in range(50):
                assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
            return runtime

        yield start
        offload_api.finalize()
        telemetry.disable()

    def test_calls_locks_and_records_per_offload(self, traced_runtime):
        runtime = traced_runtime(LocalBackend())
        recorder = telemetry.get()
        before = recorder.recorded
        counts = _profile_one_offload(runtime)
        calls, locks = counts.calls, counts.locks
        assert recorder.recorded - before == LOCAL_RECORDS
        assert calls <= MAX_TRACED_CALLS, (
            f"one traced offload made {calls} calls (budget "
            f"{MAX_TRACED_CALLS}): telemetry's own cost per offload grew — "
            "see docs/observability.md, 'What tracing costs'"
        )
        assert locks <= MAX_TRACED_LOCKS, (
            f"one traced offload took {locks} locks (budget {MAX_TRACED_LOCKS})"
        )

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_records_per_offload_on_framed_transports(
            self, traced_runtime, backend):
        """The first target of the process, forked before ``init``
        enables the recorder: each offload is still its six records,
        from one commit, the execute one the target's."""
        runtime = traced_runtime(backend)
        recorder = telemetry.get()
        recorded = recorder.recorded
        commits = []
        commit = recorder.commit_offload
        recorder.commit_offload = lambda trace, **kw: (
            commits.append(trace) or commit(trace, **kw))
        try:
            for i in range(3):
                assert runtime.sync(1, f2f(apps.echo, i)) == i
        finally:
            del recorder.commit_offload
        assert recorder.recorded - recorded == 3 * FRAMED_RECORDS
        assert len(commits) == 3
        executes = recorder.spans("offload.execute")[-3:]
        pid = runtime.backend.introspect_target()["pid"]
        assert [r.pid for r in executes] == [pid] * 3 != [os.getpid()] * 3
        assert ({r.trace_id for r in executes}
                == {trace.ctx.trace_id_hex for trace in commits})


#: One tcp ``post_invoke`` of ``echo(7)`` with the coalescer in front of
#: the socket, (calls, locks) by in-flight depth, on CPython 3.11. At
#: depth 1 (anything <= ``idle_depth`` with an empty buffer) the frame is
#: its own batch: 33 calls, and the two locks are the correlation
#: table's and the send lock; nothing of the coalescer's stands in
#: between. At depth 256 every frame only buffers: (23, 2), the first
#: of a batch as the ones behind it — no clock is armed. The ceilings
#: sit ~5 % above (depth 1's from when it measured 34).
MAX_TCP_POST = {1: (36, 2), 256: (25, 2)}


class TestTcpPostBudget:
    """What stands between ``_post_frame`` and ``sendmsg`` when nothing
    is to be batched, counted."""

    @pytest.fixture
    def backend(self):
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        functor = f2f(apps.echo, 7)
        for _ in range(20):
            assert backend.post_invoke(1, functor).wait() == 7
        yield backend
        backend.shutdown()
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()

    def _post(self, backend):
        functor = f2f(apps.echo, 7)
        counts = profile_calls(lambda: backend.post_invoke(1, functor))
        return counts.value, counts.calls, counts.locks, counts.python

    def test_depth_1_is_one_sendmsg_and_nothing_else(self, backend):
        batch = backend.stats()["batch"]
        handle, calls, locks, python = self._post(backend)
        assert python.count("_sendmsg_all") == 1
        assert "_steal_locked" not in python
        assert calls <= MAX_TCP_POST[1][0] and locks <= MAX_TCP_POST[1][1]
        after = backend.stats()["batch"]
        assert after["batches"] == batch["batches"] + 1
        assert after["flush_reasons"]["idle"] == batch["flush_reasons"]["idle"] + 1
        # The waiter's flush finds nothing buffered, and takes no lock.
        flush = profile_calls(lambda: backend._coalescer.flush("drive"))
        assert (flush.value, flush.locks) == (0, 0)
        assert handle.wait() == 7

    def test_depth_256_only_buffers(self, backend):
        functor = f2f(apps.echo, 7)
        handles = [backend.post_invoke(1, functor) for _ in range(255)]
        backend._coalescer.flush()
        first, calls, locks, python = self._post(backend)
        assert "_sendmsg_all" not in python
        assert calls <= MAX_TCP_POST[256][0] and locks <= MAX_TCP_POST[256][1]
        behind, calls_behind, locks_behind, python = self._post(backend)
        assert "_sendmsg_all" not in python
        assert (calls_behind, locks_behind) == (calls, locks)
        assert [h.wait() for h in (*handles, first, behind)] == [7] * 257

    def test_pipelined_posts_wake_nothing(self, backend):
        """Held batches leave with their waiters: 256 posts and their
        gets start no thread, and the host has nothing to wake."""
        threads = sorted(thread.name for thread in threading.enumerate())
        functor = f2f(apps.echo, 7)
        handles = [backend.post_invoke(1, functor) for _ in range(256)]
        assert [h.wait() for h in handles] == [7] * 256
        assert backend.stats()["reactor"] == {"wakeups": 0}
        assert sorted(thread.name for thread in threading.enumerate()) == threads


#: Scheduler timeslices the forked target runs per depth-1 echo offload
#: when host and target share one CPU — a count of thread changes, not
#: a wall-clock bound. The reader executes what it reads and keeps
#: reading, so the target runs about once per offload: 1.0 on shm, 1.03
#: on tcp. Handing the reading on for every message costs 4.25 and
#: 3.7–3.8 (a follower woken, beaten to the GIL, put back to sleep and
#: switched to again after the reply).
MAX_TARGET_TIMESLICES = {"shm": 2.0, "tcp": 2.0}

#: The host's twin, over all of its threads: the caller posts, waits,
#: reads its own reply and returns — one timeslice, 1.01 on both
#: transports. A thread that receives for the caller makes it 2.66 on
#: tcp: every reply wakes that thread, which wakes the caller.
MAX_HOST_TIMESLICES = 1.5

#: ``sched_yield`` laps per depth-1 shm offload, host (waiting for the
#: reply) and target (waiting for the next request): 1.000 each on one
#: CPU — the one yield that hands the CPU to the peer, none that comes
#: back empty-handed, which is all a doorbell could save.
MAX_SHM_LAPS = 1.1

#: Target writes (``_transmit`` calls) per offload of 200 rounds of 256
#: pipelined tcp echoes on one CPU:
#: ~0.05 — the reader answers the frames of one receive in one write (a
#: write per reply would be 1.0).
MAX_PIPELINED_TARGET_WRITES = 0.25

_SCHEDULER_SCRIPT = """
import asyncio, glob, json, os, threading, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # before the import
from repro.offload import api
from repro.ham import f2f
from tests.apps import echo
from tests.callcount import profile_calls

def timeslices(pid):  # third field: slices run on a CPU so far
    return sum(int(open(path).read().split()[2])
               for path in glob.glob(f"/proc/{pid}/task/*/schedstat"))

def counters():
    stats = backend.stats()
    target = backend.introspect_target()
    return {
        "host": timeslices(os.getpid()), "target": timeslices(target["pid"]),
        "host_laps": stats.get("reply_ring", {}).get("laps", 0),
        "target_laps": (target["rings"] or {}).get("request", {}).get("laps", 0),
    }

runtime = api.init(%r)
backend = runtime.backend
assert backend.introspect_target()["pid"] != os.getpid()
for i in range(500):
    assert api.sync(1, f2f(echo, i)) == i
before = counters()
for i in range(2000):
    assert api.sync(1, f2f(echo, i)) == i
after = counters()
report = {key: (after[key] - before[key]) / 2000 for key in before}
report["built"] = profile_calls(lambda: api.sync(1, f2f(echo, 7))).constructed
report["threads"] = sorted(thread.name for thread in threading.enumerate())

# 200 sequential awaited echoes, every way to sleep counted: time.sleep,
# the loop's timers, and a select that blocks (on tcp that one is the
# loop waiting for the socket to turn readable: not asserted on).
sleeps, loop = [], asyncio.new_event_loop()
sleep, call_later = time.sleep, loop.call_later
select = loop._selector.select
time.sleep = lambda seconds: sleeps.append(seconds) or sleep(seconds)
loop.call_later = lambda delay, *a, **k: sleeps.append(delay) or call_later(delay, *a, **k)

def counted_select(timeout=None):
    if timeout != 0:
        sleeps.append(timeout)
    return select(timeout)

loop._selector.select = counted_select

async def awaited():
    for i in range(200):
        assert await api.async_(1, f2f(echo, i)) == i

loop.run_until_complete(awaited())
loop.close()
time.sleep = sleep
report["awaited_sleeps"] = len(sleeps)
print(json.dumps(report))
api.finalize()
"""

_PIPELINED_SCRIPT = """
import json, multiprocessing, os, threading
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # before the import
from repro.backends.tcp import TcpTargetServer
from repro.offload import api
from repro.ham import f2f
from tests.apps import echo

# The forked target counts its writes into memory it shares with us.
writes, transmit = multiprocessing.RawValue("q", 0), TcpTargetServer._transmit

def counted(server, frame, nbytes):
    writes.value += 1
    transmit(server, frame, nbytes)

TcpTargetServer._transmit = counted
started, start = [], threading.Thread.start
threading.Thread.start = lambda thread: started.append(thread.name) or start(thread)
api.init("tcp", window=256)
written = writes.value
for _ in range(200):
    futures = [api.async_(1, f2f(echo, i)) for i in range(256)]
    assert [future.get() for future in futures] == list(range(256))
target_writes = (writes.value - written) / (200 * 256)
api.finalize()
print(json.dumps({"target_writes": target_writes, "started": started,
                  "after": sorted(t.name for t in threading.enumerate())}))
"""

needs_schedstat = pytest.mark.skipif(
    not os.path.exists("/proc/self/schedstat")
    or not hasattr(os, "sched_setaffinity"),
    reason="needs Linux schedstat and CPU affinity",
)


@functools.lru_cache(maxsize=None)
def _per_offload(transport, run=0):
    """What 2000 depth-1 echo offloads cost each, in a fresh interpreter
    pinned to one CPU together with its target (once per transport and
    ``run``)."""
    return json.loads(fresh_python(_SCHEDULER_SCRIPT % transport))


@needs_schedstat
@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_target_runs_about_once_per_offload(transport):
    per_offload = _per_offload(transport)["target"]
    assert per_offload <= MAX_TARGET_TIMESLICES[transport], (
        f"the {transport} target ran {per_offload:.2f} timeslices per "
        f"offload (ceiling {MAX_TARGET_TIMESLICES[transport]}): it changes "
        "threads per message again — see docs/architecture.md, 'Target "
        "dispatch'"
    )


@needs_schedstat
@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_host_runs_about_once_per_offload(transport):
    report = _per_offload(transport)
    assert report["host"] <= MAX_HOST_TIMESLICES, (
        f"the host ran {report['host']:.2f} timeslices per {transport} "
        f"offload (ceiling {MAX_HOST_TIMESLICES}): somebody other than the "
        "waiting caller reads its reply again — see docs/architecture.md, "
        "'Client core'"
    )
    # No thread but the caller's exists, and the caller waited on
    # nothing it had to build.
    assert report["threads"] == ["MainThread"]
    assert report["built"] == []


@needs_schedstat
def test_awaited_shm_echoes_sleep_nowhere():
    """The loop that awaits polls the ring the way a blocking waiter
    does: each echo comes back within the spin laps, and the loop never
    blocks."""
    assert _per_offload("shm")["awaited_sleeps"] == 0


@functools.lru_cache(maxsize=None)
def _pipelined():
    """200 rounds of 256 pipelined tcp echoes in a fresh interpreter
    pinned to one CPU together with its target (once)."""
    return json.loads(fresh_python(_PIPELINED_SCRIPT))


@needs_schedstat
def test_pipelined_tcp_starts_no_thread():
    """Held batches leave when their posters wait: nothing runs on a
    clock, so 51,200 pipelined offloads start no host thread."""
    report = _pipelined()
    assert report["started"] == []
    assert report["after"] == ["MainThread"]


@needs_schedstat
def test_pipelined_tcp_target_answers_a_burst_in_one_write():
    report = _pipelined()
    assert report["target_writes"] <= MAX_PIPELINED_TARGET_WRITES, (
        f"the tcp target made {report['target_writes']:.3f} writes per "
        f"pipelined offload (ceiling {MAX_PIPELINED_TARGET_WRITES}): it "
        "no longer holds a burst's replies — see docs/architecture.md, "
        "'Target dispatch'"
    )


@needs_schedstat
def test_no_shm_yield_comes_back_empty_handed():
    # A third runnable process on that CPU takes a yield meant for the
    # peer and only ever adds laps; a yield the protocol wastes is there
    # in every run. So: the quietest of up to three.
    for run in range(3):
        report = _per_offload("shm", run)
        if max(report["host_laps"], report["target_laps"]) <= MAX_SHM_LAPS:
            break
    assert 0 < report["host_laps"] <= MAX_SHM_LAPS, report
    assert 0 < report["target_laps"] <= MAX_SHM_LAPS, report
