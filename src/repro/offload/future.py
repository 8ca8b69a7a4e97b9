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
The bridge is callback-driven when the backend supports it — attaching
the done-callback has the transport read replies on the shared reactor
for as long as callbacks are armed, whichever thread completes the
handle runs it, and it pokes the event loop via
``call_soon_threadsafe`` — and falls back to a short exponential poll
for handles without completion callbacks.
"""

from __future__ import annotations

import time
from typing import Any, Generator, Protocol

from repro.errors import FutureError, OffloadTimeoutError
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext
from repro.telemetry.sampling import complete_offload

__all__ = ["Future", "OperationHandle", "CompletedHandle"]


class OperationHandle(Protocol):
    """What backends hand to futures: a pollable pending operation."""

    def test(self) -> bool:
        """Non-blocking completion probe."""
        ...

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; return the value (raising on failure).

        With ``timeout`` set, raise :class:`OffloadTimeoutError` instead
        of blocking past the deadline.
        """
        ...


class CompletedHandle:
    """A trivially complete handle (synchronous backends)."""

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
        handle: OperationHandle,
        label: str = "",
        trace: TraceContext | None = None,
        start_ns: int | None = None,
        tenant: str | None = None,
        node: int | None = None,
    ) -> None:
        self._handle: OperationHandle | None = handle
        self._label = label
        #: Target node the invocation was posted to; lets the settle
        #: attribute the round trip per target (TSDB scoreboard series).
        self._node = node
        #: Tenant this offload is accounted to (QoS layer); rides along
        #: so the settle feeds the tenant's own SLO windows.
        self._tenant = tenant
        #: Distributed trace opened at offload() time; re-activated
        #: around the settle so the wait/decode spans join the same
        #: causal tree even when get() runs far from async_().
        self._trace = trace
        #: perf_counter_ns at issue time; when set, settling feeds the
        #: round-trip duration to the kernel's histogram / SLO monitor
        #: / tail pipeline via complete_offload. None for trivially
        #: complete handles (put/get/copy parity futures).
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
        return getattr(self._handle, "correlation_id", None)

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

        Completion-capable handles (every transport backend) wake the
        loop exactly once via a done-callback; handles without
        ``add_done_callback`` are polled with an exponential backoff
        capped at 5 ms. Cancelling the awaiting task leaves the future
        *pending*, exactly like a timed-out ``get`` — a later ``get``
        or ``await`` can still collect the reply.
        """
        if not self._done and not self.test():
            import asyncio  # the awaiting caller has; get()-only users never do

            loop = asyncio.get_running_loop()
            attach = getattr(self._handle, "add_done_callback", None)
            if attach is not None:
                woken = loop.create_future()

                def _wake() -> None:
                    if not woken.done():
                        woken.set_result(None)

                def _on_done(_handle: Any) -> None:
                    # Runs on the completing thread (backstop / driver);
                    # a closed loop means the application is tearing
                    # down and nobody is left to wake.
                    if not loop.is_closed():
                        loop.call_soon_threadsafe(_wake)

                attach(_on_done)
                yield from woken.__await__()
            else:
                delay = 50e-6
                while not self.test():
                    yield from asyncio.sleep(delay).__await__()
                    delay = min(delay * 2, 5e-3)
        # The handle is complete: get() settles without blocking and
        # re-raises a remote failure, identical to the sync surface.
        return self.get()

    def _settle(self, timeout: float | None = None) -> None:
        if self._handle is None:
            raise FutureError(f"future {self._label!r} detached from its backend")
        try:
            with trace_context.activate(self._trace):
                self._value = self._handle.wait(timeout=timeout)
        except OffloadTimeoutError:
            # Deadline expired but the operation may still be in flight:
            # stay pending so a later get() can collect the reply (a
            # poisoned handle simply re-raises immediately next time).
            # The caller-visible deadline miss still counts against the
            # availability SLO — once per future, even if the straggler
            # reply eventually lands — otherwise dropped messages (the
            # most common chaos fault) would be invisible to burn-rate
            # alerting.
            telemetry.count("future.timeouts")
            if self._start_ns is not None and not self._timeout_observed:
                self._timeout_observed = True
                recorder = telemetry.get()
                if recorder is not None and recorder.slo is not None:
                    recorder.slo.observe(
                        "offload",
                        time.perf_counter_ns() - self._start_ns,
                        error=True,
                        tenant=self._tenant,
                    )
            raise
        except BaseException as exc:  # noqa: BLE001 - stored for re-raise
            self._error = exc
        self._done = True
        self._handle = None
        telemetry.count("future.settled")
        recorder = telemetry.get()
        if self._start_ns is not None and recorder is not None:
            # The one completion hook per offload: folds the round trip
            # into the kernel's series and SLO windows, and lets the
            # tail pipeline pass its keep/drop verdict on an unsampled
            # trace's staged spans.
            complete_offload(
                self._trace,
                kernel=self._label,
                duration_ns=time.perf_counter_ns() - self._start_ns,
                error=self._error is not None,
                recorder=recorder,
                tenant=self._tenant,
                node=self._node,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self._label!r} {state}>"
