"""Futures (paper Table II: ``future<T>``).

"Lazy synchronization to an asynchronous offload operation ... provides
non-blocking ``test()`` and blocking ``get()`` accessors." A future wraps
a backend-specific handle; calling :meth:`get` repeatedly returns the
cached value.

Beyond the paper, :meth:`Future.get` accepts a ``timeout`` (seconds):
instead of blocking forever on a silent target it raises
:class:`~repro.errors.OffloadTimeoutError`. A timed-out future stays
*pending* — the reply may still arrive, and a later ``get`` (with a new
deadline or without one) can pick it up.

Futures are also awaitable: ``await future`` inside an asyncio
coroutine suspends the task (not the thread) until the reply lands.
The running loop is then the waiter: on a driven transport it reads the
replies itself (:class:`AwaitingLoop`), and whichever thread completes
the handle wakes the task through a done-callback.
"""

from __future__ import annotations

import functools
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.backends.base import SLEEP_MAX, SLEEP_MIN, SPIN_YIELDS, Backend, InvokeHandle
from repro.errors import FutureError, OffloadTimeoutError
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext
from repro.telemetry.recorder import complete_offload

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.recorder import OffloadTrace, Recorder

__all__ = ["AwaitingLoop", "CompletedHandle", "Future"]


class CompletedHandle:
    """A trivially complete handle (put, get and copy futures)."""

    #: Nothing went on the wire under an id, and nothing is traced.
    correlation_id = None
    trace = None

    def __init__(self, value: Any = None, error: BaseException | None = None) -> None:
        self._value = value
        self._error = error

    def test(self) -> bool:
        return True

    def wait(self, timeout: float | None = None) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class Future:
    """Handle to an asynchronous offload operation's result."""

    def __init__(
        self,
        handle: InvokeHandle | CompletedHandle,
        label: str = "",
        trace: TraceContext | None = None,
        start_ns: int | None = None,
        tenant: str | None = None,
    ) -> None:
        self._handle: InvokeHandle | CompletedHandle | None = handle
        #: What :func:`settle_offload` accounts the offload by: kernel,
        #: QoS tenant, issue time (``None``: a put/get/copy
        #: parity future). The trace opened at ``async_`` is re-activated
        #: around the wait, so its spans join that causal tree even when
        #: ``get()`` runs far from ``async_()``.
        self._label = label
        self._tenant = tenant
        self._trace = trace
        self._start_ns = start_ns
        self._done = False
        self._value: Any = None
        self._error: BaseException | None = None
        self._timeout_observed = False

    @property
    def correlation_id(self) -> int | None:
        """Correlation id of the underlying invocation.

        The id frames carry on the wire and backends match replies by;
        useful to correlate application futures with telemetry and
        transport logs. ``None`` once the future has settled (the handle
        is released) or for trivially complete handles.
        """
        handle = self._handle
        return None if handle is None else handle.correlation_id

    def test(self) -> bool:
        """Whether the result is available (non-blocking)."""
        if self._done:
            return True
        assert self._handle is not None
        if self._handle.test():
            self._settle()
            return True
        return False

    def get(self, timeout: float | None = None) -> Any:
        """Block until the result is available and return it.

        Re-raises the remote exception if the offloaded function failed.
        With ``timeout`` set, raises
        :class:`~repro.errors.OffloadTimeoutError` once the deadline
        passes; the future remains pending and may be retried.
        """
        if not self._done:
            self._settle(timeout)
        if self._error is not None:
            raise self._error
        return self._value

    def __await__(self) -> Generator[Any, None, Any]:
        """Suspend the current asyncio task until the result is ready.

        The blocking semantics of :meth:`get` are preserved — the same
        settle path runs, remote exceptions re-raise, the value is
        cached — but the wait parks only the task: the event loop keeps
        running other coroutines while the reply is in flight, so one
        loop can hold thousands of offloads open concurrently.

        The handle wakes the task exactly once via a done-callback;
        while the task waits on a driven transport (tcp, shm, the
        simulators) its loop polls the transport for it. Cancelling the
        awaiting task leaves the future *pending*, exactly like a
        timed-out ``get`` — a later ``get`` or ``await`` can still
        collect the reply.
        """
        if not self._done and not self.test():
            import asyncio  # the awaiting caller has; get()-only users never do

            loop = asyncio.get_running_loop()
            handle = self._handle
            assert isinstance(handle, InvokeHandle)  # a completed one tested done
            woken = loop.create_future()

            def _wake() -> None:
                if not woken.done():
                    woken.set_result(None)

            def _on_done(_handle: Any) -> None:
                # Runs on the completing thread: the loop's own poll,
                # or another waiter. A closed loop means the
                # application is tearing down and nobody is left to wake.
                if not loop.is_closed():
                    loop.call_soon_threadsafe(_wake)

            handle.add_done_callback(_on_done)
            release: Callable[[], None] | None = None
            if handle.backend.driven:
                release = AwaitingLoop.watch(loop, handle)
            try:
                yield from woken.__await__()
            finally:
                if release is not None:
                    release()
        # The handle is complete: get() settles without blocking and
        # re-raises a remote failure, identical to the sync surface.
        return self.get()

    def _settle(self, timeout: float | None = None) -> None:
        handle = self._handle
        if handle is None:
            raise FutureError(f"future {self._label!r} detached from its backend")
        try:
            if self._trace is None:  # nothing recorded at async_: no trace
                self._value = handle.wait(timeout=timeout)
            else:
                with trace_context.activate(self._trace):
                    self._value = handle.wait(timeout=timeout)
        except OffloadTimeoutError:
            # Deadline expired but the operation may still be in flight:
            # stay pending so a later get() can collect the reply (a
            # poisoned handle simply re-raises immediately next time).
            # The availability SLO sees the miss once per future, even
            # if the straggler reply eventually lands. The offload's
            # record ends with the missed deadline: committed now, it
            # leaves the handle, and a later reply is not stamped.
            trace = handle.trace
            handle.trace = None
            recorder = telemetry.get() if trace is None else trace.recorder
            if recorder is not None:
                settle_offload(
                    recorder,
                    None if self._timeout_observed else self._start_ns,
                    self._label, self._tenant, timed_out=True, trace=trace,
                )
            self._timeout_observed = True
            raise
        except BaseException as exc:  # noqa: BLE001 - stored for re-raise
            self._error = exc
        self._done = True
        self._handle = None
        trace = handle.trace
        recorder = telemetry.get() if trace is None else trace.recorder
        if recorder is not None:
            settle_offload(recorder, self._start_ns, self._label, self._tenant,
                           error=self._error is not None, trace=trace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self._label!r} {state}>"


def settle_offload(recorder: "Recorder", start_ns: int | None, label: str,
                   tenant: str | None, *, error: bool = False,
                   timed_out: bool = False, trace: "OffloadTrace | None" = None,
                   issued: bool = False) -> None:
    """Account into ``recorder`` (the caller's, read once per offload) how
    one offload ended, a future's or a sync's: a missed deadline counts
    ``future.timeouts`` and misses availability; any other end counts
    ``future.settled`` and, given the issue time ``start_ns``, goes to
    :func:`~repro.telemetry.recorder.complete_offload`.

    A traced offload's record ``trace`` is committed here, with
    ``offload.issued`` when ``issued`` (a sync's), ``future.settled``
    and the kernel's round trip in the same commit."""
    if timed_out:
        if trace is not None:
            recorder.commit_offload(trace, issued=issued)
        recorder.counters["future.timeouts"].inc()
        availability_miss(start_ns, tenant)
        return
    if trace is None:
        recorder.counters["future.settled"].inc()
        if start_ns is not None:
            complete_offload(
                kernel=label, duration_ns=time.perf_counter_ns() - start_ns,
                error=error, recorder=recorder, tenant=tenant,
            )
        return
    duration_ns = time.perf_counter_ns() - start_ns
    recorder.commit_offload(trace, issued=issued, duration_ns=duration_ns)
    if error:
        recorder.kernel_errors[label or "<anonymous>"].inc()
    slo = recorder.slo
    if slo is not None:
        slo.observe(duration_ns, error=error, tenant=tenant)


def availability_miss(start_ns: int | None, tenant: str | None) -> None:
    """Charge the offload issued at ``start_ns`` to the availability SLO
    as failed: a timed-out or unposted one, which nothing else settles."""
    recorder = telemetry.get()
    if start_ns is not None and recorder is not None and recorder.slo is not None:
        recorder.slo.observe(time.perf_counter_ns() - start_ns,
                             error=True, tenant=tenant)


class AwaitingLoop:
    """The asyncio loop that awaits replies of a driven backend reads them.

    The paper's receiver polls for its message itself; a task that
    awaits blocks no thread, so its loop is the waiter. One per
    (backend, loop), kept while awaiters on that loop need it and used
    on the loop's thread only. A reply descriptor (tcp's socket) is
    watched with ``loop.add_reader``, so a reply completes on arrival.
    Without one (a shm ring, a simulator) the loop polls a lap per
    callback, other tasks running between laps, on the schedule of a
    blocking waiter: ``SPIN_YIELDS`` yielding laps, then sleeps from
    ``SLEEP_MIN`` doubling to ``SLEEP_MAX``, spinning again once a reply
    came. A poll drives the oldest pending awaited handle without
    blocking; a drive that raises fails that handle, as it would fail a
    blocking ``get``.
    """

    _live: dict[tuple[Backend, Any], "AwaitingLoop"] = {}

    @classmethod
    def watch(cls, loop: Any, handle: InvokeHandle) -> Callable[[], None]:
        """Count one awaiter of ``handle`` on ``loop``; returns its release."""
        key = (handle.backend, loop)
        poller = cls._live.get(key)
        if poller is None:
            poller = cls._live[key] = cls(key)
        poller._awaited.append(handle)
        if poller._fd is None and poller._lap is None:
            poller._lap = loop.call_soon(poller._next_lap)
        return functools.partial(poller._release, handle)

    def __init__(self, key: tuple[Backend, Any]) -> None:
        self._backend, self._loop = key
        #: Awaited handles, oldest first, once per awaiter.
        self._awaited: list[InvokeHandle] = []
        self._lap: Any = None
        self._spins = 0
        self._sleep = SLEEP_MIN
        self._fd = self._backend._reply_fd()
        if self._fd is not None:
            self._loop.add_reader(self._fd, self._poll)

    def _poll(self) -> InvokeHandle | None:
        """One poll; returns the handle it drove (``None``: all done)."""
        handle = next((h for h in self._awaited if not h.completed), None)
        if handle is not None:
            self._backend.loop_polls += 1
            try:
                self._backend.drive(handle, blocking=False)
            except Exception as exc:  # noqa: BLE001 - a loop callback must not raise
                handle.complete_with_error(exc)
        return handle

    def _next_lap(self) -> None:
        handle = self._poll()
        if handle is None:  # its awaiters are waking up: nothing to poll for
            self._lap = None
            return
        if handle.completed:
            self._spins, self._sleep = 0, SLEEP_MIN
        self._spins += 1
        if self._spins <= SPIN_YIELDS:
            os.sched_yield()
            self._lap = self._loop.call_soon(self._next_lap)
        else:
            self._lap = self._loop.call_later(self._sleep, self._next_lap)
            self._sleep = min(self._sleep * 2, SLEEP_MAX)

    def _release(self, handle: InvokeHandle) -> None:
        self._awaited.remove(handle)  # near the front: most leave oldest first
        if self._awaited:
            return
        del self._live[self._backend, self._loop]
        if self._fd is not None:
            self._loop.remove_reader(self._fd)
        if self._lap is not None:
            self._lap.cancel()
