"""The HAM-Offload runtime: public API bound to one backend.

One :class:`Runtime` instance per application role. The host-side runtime
exposes the paper's Table II API; the target-side message loop lives in
the backends (an in-process image, a TCP server process, or a simulated
VE process).

Beyond the paper, the runtime optionally carries a
:class:`~repro.offload.resilience.ResiliencePolicy`: per-operation
deadlines are pushed into the backend, transport failures feed a
per-node :class:`~repro.offload.resilience.HealthMonitor` whose circuit
breaker fails fast on dead nodes, and operations the caller declares
idempotent are retried with seeded exponential backoff — failing over to
a healthy peer target where the backend has one.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import (
    BackendError,
    CircuitOpenError,
    OffloadError,
    OffloadTimeoutError,
    RemoteExecutionError,
)
from repro.backends.base import DEFAULT_INFLIGHT_LIMIT, InflightWindow
from repro.ham.functor import Functor
from repro.offload.buffer import BufferPtr, is_location_free
from repro.offload.future import CompletedHandle, Future, availability_miss, settle_offload
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.offload.qos import (
    _CURRENT_TENANT,
    DEFAULT_TENANT_ID,
    AdmissionController,
    QoSConfig,
)
from repro.offload.resilience import HealthMonitor, ResiliencePolicy
from repro.telemetry import context as trace_context
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import OffloadTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import Backend

__all__ = ["Runtime"]

#: Transport-level failures: retry candidates for idempotent operations.
_TRANSPORT_ERRORS = (BackendError, OffloadTimeoutError)


class Runtime:
    """Host-side HAM-Offload runtime (paper Table II operations).

    Parameters
    ----------
    backend:
        The communication backend connecting this process to its targets.
    policy:
        Optional :class:`ResiliencePolicy`. When set, the policy deadline
        becomes the backend's default operation timeout and bounds the
        wait for a window slot, a
        :class:`HealthMonitor` tracks per-node health, and
        :meth:`sync` honors ``idempotent=True`` with bounded retries and
        failover. Without a policy the runtime behaves exactly like the
        paper's: raw speed, no protection.
    window:
        Optional bound on invocations this runtime holds in flight (the
        limit of :attr:`window`, its first-come-first-served
        :class:`~repro.backends.base.InflightWindow`). ``None`` means
        :data:`~repro.backends.base.DEFAULT_INFLIGHT_LIMIT`.
    qos:
        Optional :class:`~repro.offload.qos.QoSConfig`. When set,
        every offload passes an
        :class:`~repro.offload.qos.AdmissionController` *before*
        serialization — a tenant over its rate limit fails in
        microseconds instead of burning a window slot. An offload's
        tenant is the ``tenant=`` argument, the ambient
        :func:`~repro.offload.qos.tenant_scope`, or ``"default"``, in
        that order.
    """

    def __init__(
        self,
        backend: "Backend",
        policy: ResiliencePolicy | None = None,
        *,
        window: int | None = None,
        qos: QoSConfig | None = None,
    ) -> None:
        self.backend = backend
        self.policy = policy
        #: A policy brings a health monitor; no policy, no monitor.
        self.monitor = HealthMonitor(policy) if policy is not None else None
        self.admission = AdmissionController(qos) if qos is not None else None
        #: Every offload of this runtime is admitted through this window
        #: (in :meth:`_offload`); the backend only moves it.
        self.window = InflightWindow(
            DEFAULT_INFLIGHT_LIMIT if window is None else window
        )
        #: A full window against a dead target must fail fast too: the
        #: policy deadline bounds the wait for a free slot.
        self._window_timeout = policy.deadline if policy is not None else None
        if self._window_timeout is not None:
            backend.set_default_timeout(self._window_timeout)
        self._retry_rng = policy.rng() if policy is not None else None
        self._sleep: Callable[[float], None] = time.sleep
        #: (node, addr) -> (pointer, telemetry span id of the allocation
        #: site, 0 when telemetry was off) — the span id lets the leak
        #: warning at shutdown point back into the trace.
        self._live_buffers: dict[tuple[NodeId, int], tuple[BufferPtr, int]] = {}
        self._shutdown = False
        self._offloads_posted = 0
        self._retries = 0
        self._failovers = 0
        self._puts = 0
        self._gets = 0
        self._copies = 0
        # The black-box flight recorder includes this runtime's stats()
        # in crash bundles until a clean shutdown detaches it.
        flightrecorder.attach_runtime(self)

    # -- topology ------------------------------------------------------------
    def num_nodes(self) -> int:
        """Number of processes of the running application."""
        return self.backend.num_nodes()

    def this_node(self) -> NodeId:
        """Address of the current process (the host)."""
        return HOST_NODE

    def get_node_descriptor(self, node: NodeId) -> NodeDescriptor:
        """Descriptor of ``node``."""
        return self.backend.descriptor(node)

    def targets(self) -> list[NodeId]:
        """All offload-target node addresses."""
        return list(range(1, self.num_nodes()))

    # -- offloading --------------------------------------------------------------
    def _offload_trace(self) -> "trace_context.TraceContext | None":
        """The distributed trace for one offload.

        While telemetry records, every offload runs inside a trace
        context: the caller's active one if there is one (so an
        application can group several offloads under one trace), else a
        fresh root generated here — "generated at offload()". With
        telemetry off, no context exists and the path stays free.
        :meth:`_offload` does the same inline.
        """
        if telemetry.get() is None:
            return None
        ctx = trace_context.current()
        if ctx is not None:
            return ctx
        return trace_context.new_trace()

    def async_(
        self,
        node: NodeId,
        functor: Functor,
        *,
        tenant: str | None = None,
    ) -> Future:
        """Asynchronous offload of ``functor`` to ``node`` (paper ``async``)."""
        return self._offload(node, functor, tenant)

    def _offload(
        self, node: NodeId, functor: Functor, tenant: str | None,
        expiry: float | None = None, *, sync: bool = False,
    ) -> Any:
        """The one path of every offload: a future for ``post_invoke``'s
        handle or, ``sync``, the value ``sync_invoke`` read, settled here.

        In order: the node's circuit; the tenant (``tenant``, else the
        ambient one, else a QoS runtime's default) and its admission
        (before serializing: a rejected offload never touches the window
        and is no round trip, so no SLO counts it); the offload's trace;
        a window slot, waited for no longer than the policy deadline and
        what is left until ``expiry`` (the ``time.monotonic`` end of the
        budget, which then bounds a sync's reply wait too); the backend
        call. A failed call returns the slot, unless its
        timeout carries a handle filed for the late reply. The backend
        validates ``node``.
        """
        if self._shutdown:
            raise OffloadError("runtime already shut down")
        if not isinstance(functor, Functor):
            raise OffloadError(
                "async_/sync expect a Functor; build one with f2f(fn, args...)"
            )
        if self.monitor is not None:
            self.monitor.check(node)
        start_ns = time.perf_counter_ns()
        if tenant is None:
            tenant = _CURRENT_TENANT.get()  # current_tenant(), inline
            if tenant is None and self.admission is not None:
                tenant = DEFAULT_TENANT_ID
        if tenant is not None:
            if not tenant:
                raise OffloadError("tenant id must be non-empty")
            if self.admission is not None:
                self.admission.admit(tenant, functor.type_name)
        recorder = telemetry.get()
        ctx: trace_context.TraceContext | None = None
        token: Any = None
        trace: OffloadTrace | None = None
        if recorder is not None:
            # _offload_trace(), written out: a fresh root is active
            # around the call, and left again on every way out.
            ctx = trace_context.current()
            if ctx is None:
                ctx = trace_context.new_trace()
                token = trace_context.enter(ctx)
        window = self.window
        acquired = False
        try:
            slot_wait = self._window_timeout
            if expiry is not None:
                remaining = expiry - time.monotonic()
                if remaining <= 0:
                    raise OffloadTimeoutError(
                        "offload budget exhausted before a window slot "
                        "was acquired"
                    )
                slot_wait = remaining if slot_wait is None else min(slot_wait, remaining)
            window.acquire(timeout=slot_wait, label=functor.type_name)
            acquired = True
            if recorder is not None:
                # The offload's record: its phases are stamped as they
                # run and committed once, where it settles.
                trace = OffloadTrace(recorder, ctx, functor.type_name)
            if not sync:
                result = self.backend.post_invoke(node, functor)
            else:
                # What the slot wait left of the budget, if there is one.
                timeout = None if expiry is None else expiry - time.monotonic()
                result = self.backend.sync_invoke(node, functor, timeout)
        except BaseException as exc:
            if token is not None:
                trace_context.leave(token)
            if acquired:
                late = exc.handle if isinstance(exc, OffloadTimeoutError) else None
                if late is None:
                    window.cancel()
                else:
                    window.register(late)
            self._failed(node, functor, tenant, start_ns, exc, sync and acquired,
                         trace)
            raise
        finally:
            if trace is not None:  # in case no serialize took it
                trace.stack.offload = None
        if token is not None:
            trace_context.leave(token)
        self._offloads_posted += 1
        if not sync:
            if trace is not None:
                recorder.counters["offload.issued"].inc()
            window.register(result)
            return Future(result, label=functor.type_name, trace=ctx,
                          start_ns=start_ns, tenant=tenant)
        window.cancel()
        if self.policy is not None:  # the retry loop's health accounting
            self.monitor.record_success(node)
        if trace is not None:
            settle_offload(recorder, start_ns, functor.type_name, tenant,
                           trace=trace, issued=True)
        return result

    def sync(
        self,
        node: NodeId,
        functor: Functor,
        *,
        idempotent: bool = False,
        timeout: float | None = None,
        tenant: str | None = None,
    ) -> Any:
        """Synchronous offload: ``async_`` + ``get``, read by the caller
        with no future built (one :meth:`_offload` per attempt).

        Parameters
        ----------
        idempotent:
            Caller's assertion that executing the functor more than once
            (and on a different target, if the policy allows failover) is
            safe. Only then are transport failures retried under the
            runtime's :class:`ResiliencePolicy` — the runtime cannot know
            whether a timed-out offload also executed. Functors closing
            over node-local :class:`BufferPtr` arguments are *not*
            location-independent: they are retried on their own node and
            never failed over.
        timeout:
            Per-call deadline override (seconds), one budget for the
            wait for a window slot and the wait for the reply; defaults
            to the policy deadline.
        tenant:
            Tenant id this offload is accounted to; defaults to the
            ambient :func:`~repro.offload.qos.tenant_scope`, then (under
            ``qos=``) ``"default"``.
        """
        if self.policy is None:
            # One budget for the slot wait and the reply wait, as below.
            expiry = None if timeout is None else time.monotonic() + timeout
            return self._offload(node, functor, tenant, expiry, sync=True)
        # One trace spans the whole resilient operation: every retry and
        # failover re-posts under the same trace_id, so the merged trace
        # shows attempt N's spans (and the resilience.* events between
        # them) re-parented onto the one logical offload.
        with trace_context.activate(self._offload_trace()):
            return self._sync_attempts(
                node, functor, tenant,
                timeout if timeout is not None else self.policy.deadline,
                idempotent,
            )

    def _failed(
        self, node: NodeId, functor: Functor, tenant: str | None,
        start_ns: int, exc: BaseException, ended: bool,
        trace: OffloadTrace | None,
    ) -> None:
        """Account an offload whose slot wait or backend call raised.
        ``ended``: a sync's call (post and wait in one) raised, so a
        transport or remote error ends an issued offload, settled as a
        future's wait is. Before that, a transport error is a failed
        post. Each but a reply timeout is noted; health: docs/resilience.md.
        A traced offload's record (``trace``) is committed either way."""
        reply = ended and isinstance(exc, (OffloadTimeoutError, RemoteExecutionError))
        if not (reply or isinstance(exc, _TRANSPORT_ERRORS)):
            # Not the transport's: a bad node, an unencodable functor.
            if trace is not None:
                trace.recorder.commit_offload(trace)
            return
        monitor = self.monitor
        if monitor is not None:
            if isinstance(exc, RemoteExecutionError):  # the transport works
                monitor.record_success(node)
            else:
                monitor.record_failure(node)
        if ended:
            self._offloads_posted += 1
            if trace is not None:
                settle_offload(trace.recorder, start_ns, functor.type_name,
                               tenant, error=True,
                               timed_out=isinstance(exc, OffloadTimeoutError),
                               trace=trace, issued=True)
        else:
            if trace is not None:
                trace.recorder.commit_offload(trace)
            telemetry.count("offload.issue_failures")
            availability_miss(start_ns, tenant)
        if not reply:
            flightrecorder.note(
                "offload.post_failed", node=node,
                functor=functor.type_name, error=type(exc).__name__,
            )

    def _sync_attempts(
        self,
        target: NodeId,
        functor: Functor,
        tenant: str | None,
        deadline: float | None,
        idempotent: bool,
    ) -> Any:
        """The retry/failover loop of :meth:`sync` (trace already active).

        ``deadline`` is the budget for the *whole* resilient operation,
        not per attempt: the absolute expiry is computed once, and every
        retry — its wait for a window slot and its reply wait — gets
        only the time still remaining.
        Re-arming the full deadline per attempt would let three retries
        against a full window stall a 1 s policy for 4 s.
        """
        policy = self.policy
        node = target
        expiry = None if deadline is None else time.monotonic() + deadline
        # A BufferPtr argument binds the functor to its node's memory.
        failover = policy.failover and is_location_free(functor)
        tried: list[NodeId] = []
        last_error: Exception | None = None
        for attempt in range((1 + policy.max_retries) if idempotent else 1):
            if attempt:
                self._sleep(policy.delay_for(attempt - 1, self._retry_rng))
                if expiry is not None and time.monotonic() >= expiry:
                    # The backoff sleep spent the rest of the budget: a
                    # further attempt would be posted with no time left
                    # to wait for its reply.
                    last_error = OffloadTimeoutError(
                        f"operation budget exhausted after {attempt} "
                        f"attempt(s) of {functor.type_name!r}"
                    )
                    break
                self._retries += 1
                telemetry.event(
                    "resilience.retry", category="resilience",
                    functor=functor.type_name, attempt=attempt, node=target,
                )
                if failover:
                    successor = self._failover_target(target, tried)
                    if successor is None:
                        break
                    if successor != node:
                        self._failovers += 1
                        telemetry.event(
                            "resilience.failover", category="resilience",
                            functor=functor.type_name,
                            from_node=target, to_node=successor,
                        )
                    target = successor
            try:
                return self._offload(target, functor, tenant, expiry, sync=True)
            except (CircuitOpenError, *_TRANSPORT_ERRORS) as exc:
                # Health is accounted. A RemoteExecutionError propagates:
                # the transport worked, and a retry would repeat it.
                tried.append(target)
                last_error = exc
        assert last_error is not None
        # Every retry and failover is spent: this error reaches the
        # caller, which is exactly the moment a post-mortem bundle pays.
        flightrecorder.trigger(
            "offload_error", functor=functor.type_name,
            error=type(last_error).__name__, attempts=len(tried),
        )
        raise last_error

    def _failover_target(self, current: NodeId, tried: list[NodeId]) -> NodeId | None:
        """Pick the next attempt's target: untried healthy peers first.

        Falls back to re-trying already-tried nodes (healthiest first)
        once everything has been attempted; returns ``None`` when every
        target's circuit is open.
        """
        assert self.monitor is not None
        candidates = self.monitor.preferred(self.targets(), exclude=tried)
        if candidates:
            return candidates[0]
        retryable = self.monitor.preferred(self.targets())
        return retryable[0] if retryable else None

    # -- health ------------------------------------------------------------------
    def heartbeat(self) -> dict[NodeId, float | None]:
        """Ping every target and feed the health monitor.

        Requires a runtime constructed with a policy.
        Returns per-node round-trip seconds, ``None`` for failed pings.
        """
        if self.monitor is None:
            raise OffloadError("heartbeat needs a ResiliencePolicy on the runtime")
        return self.monitor.heartbeat(self.backend, self.targets())

    def _guard(self, node: NodeId, operation: Callable[[], Any]) -> Any:
        """Run one transport call with circuit check + health accounting."""
        if self.monitor is None:
            return operation()
        self.monitor.check(node)
        try:
            result = operation()
        except _TRANSPORT_ERRORS:
            self.monitor.record_failure(node)
            raise
        self.monitor.record_success(node)
        return result

    # -- memory management -----------------------------------------------------------
    def allocate(self, node: NodeId, count: int, dtype: Any = np.float64) -> BufferPtr:
        """Allocate ``count`` elements of ``dtype`` on target ``node``."""
        self._check_running()
        self.backend.check_target(node)
        if count <= 0:
            raise OffloadError(f"allocation count must be positive, got {count}")
        dt = np.dtype(dtype)
        with telemetry.span(
            "offload.allocate", node=node, bytes=count * dt.itemsize
        ) as span:
            addr = self._guard(
                node, lambda: self.backend.alloc_buffer(node, count * dt.itemsize)
            )
        ptr = BufferPtr(node=node, addr=addr, dtype_str=dt.str, count=count)
        # Remember the allocation-site span so a leak at shutdown can be
        # traced back to the code path that allocated the buffer.
        self._live_buffers[(node, addr)] = (ptr, span.span_id)
        return ptr

    def free(self, ptr: BufferPtr) -> None:
        """Free a buffer allocated with :meth:`allocate`."""
        self._check_running()
        key = (ptr.node, ptr.addr)
        if key not in self._live_buffers:
            raise OffloadError(
                f"free of unknown or already-freed buffer {ptr!r} "
                "(freeing an offset pointer is not allowed)"
            )
        # Drop the tracking entry only after the backend confirms, so a
        # transport failure does not silently lose the buffer.
        with telemetry.span("offload.free", node=ptr.node):
            self._guard(ptr.node, lambda: self.backend.free_buffer(ptr.node, ptr.addr))
        self._live_buffers.pop(key, None)

    # -- data transfer -----------------------------------------------------------------
    def put(self, src: np.ndarray, dst: BufferPtr, count: int | None = None) -> Future:
        """Write host data into target memory (paper ``put``).

        Returns a future for API parity; current backends complete the
        transfer before returning.
        """
        self._check_running()
        data, n = self._coerce(src, dst, count)
        nbytes = n * dst.itemsize
        with telemetry.span("data.put", node=dst.node, bytes=nbytes):
            self._guard(
                dst.node,
                lambda: self.backend.write_buffer(dst.node, dst.addr, data[:n].tobytes()),
            )
        self._puts += 1
        telemetry.count("data.bytes_put", nbytes)
        return Future(CompletedHandle(None), label="put")

    def get(self, src: BufferPtr, dst: np.ndarray, count: int | None = None) -> Future:
        """Read target memory into host data (paper ``get``)."""
        self._check_running()
        data, n = self._coerce(dst, src, count)
        nbytes = n * src.itemsize
        with telemetry.span("data.get", node=src.node, bytes=nbytes):
            raw = self._guard(
                src.node,
                lambda: self.backend.read_buffer(src.node, src.addr, nbytes),
            )
        data[:n] = np.frombuffer(raw, dtype=src.dtype)[:n]
        self._gets += 1
        telemetry.count("data.bytes_got", nbytes)
        return Future(CompletedHandle(None), label="get")

    def copy(self, src: BufferPtr, dst: BufferPtr, count: int | None = None) -> Future:
        """Direct copy between two targets, orchestrated by the host."""
        self._check_running()
        n = min(src.count, dst.count) if count is None else count
        if n > src.count or n > dst.count:
            raise OffloadError(f"copy of {n} elements exceeds a buffer bound")
        if src.dtype != dst.dtype:
            raise OffloadError(f"copy dtype mismatch: {src.dtype_str} vs {dst.dtype_str}")
        if self.monitor is not None:
            self.monitor.check(src.node)
        nbytes = n * src.itemsize
        with telemetry.span(
            "data.copy", src_node=src.node, dst_node=dst.node, bytes=nbytes
        ):
            self._guard(
                dst.node,
                lambda: self.backend.copy_buffer(
                    src.node, src.addr, dst.node, dst.addr, nbytes
                ),
            )
        self._copies += 1
        telemetry.count("data.bytes_copied", nbytes)
        return Future(CompletedHandle(None), label="copy")

    def _coerce(
        self, host_array: np.ndarray, ptr: BufferPtr, count: int | None
    ) -> tuple[np.ndarray, int]:
        array = np.ascontiguousarray(host_array)
        if array.dtype != ptr.dtype:
            raise OffloadError(
                f"dtype mismatch: host {array.dtype} vs buffer {ptr.dtype_str}"
            )
        n = count if count is not None else min(array.size, ptr.count)
        if n > array.size or n > ptr.count:
            raise OffloadError(
                f"transfer of {n} elements exceeds host ({array.size}) or "
                f"target ({ptr.count}) extent"
            )
        return array.reshape(-1), n

    # -- introspection ---------------------------------------------------------------------
    @property
    def live_buffer_count(self) -> int:
        """Number of target buffers not yet freed."""
        return len(self._live_buffers)

    def stats(self) -> dict[str, Any]:
        """The one description of this runtime: counters, window
        occupancy with the handles in flight, policy, QoS and health
        state and the backend's transport statistics.

        ``offload.introspect()["host"]`` and a crash bundle's
        ``state.json`` are this dict; nothing else reads the runtime's
        parts to describe it. The metrics registry is the process's, not
        the runtime's, and has its own outlet (a bundle's
        ``metrics.json``).
        """
        window = self.window
        data: dict[str, Any] = {
            "pid": os.getpid(),
            "offloads_posted": self._offloads_posted,
            "puts": self._puts,
            "gets": self._gets,
            "copies": self._copies,
            "live_buffers": self.live_buffer_count,
            "window": {
                "in_flight": window.in_flight,
                "limit": window.limit,
                # What a crash would strand, by correlation id.
                "handles": [
                    {"corr": handle.correlation_id, "label": handle.label}
                    for handle in window.handles().values()
                ],
            },
            "backend": self.backend.stats(),
        }
        policy = self.policy
        if policy is not None:
            data["retries"] = self._retries
            data["failovers"] = self._failovers
            data["policy"] = {
                "deadline": policy.deadline,
                "max_retries": policy.max_retries,
                "failover": policy.failover,
            }
        if self.admission is not None:
            data["qos"] = {"admission": self.admission.snapshot()}
        if self.monitor is not None:
            data["health"] = self.monitor.snapshot()
        return data

    def _drain_target_telemetry(self, timeout: float = 1.0) -> None:
        """Pull remaining target-side telemetry, best effort.

        A backend whose target is another process (``OP_TELEMETRY`` on
        tcp and shm) holds target-process spans the host has not yet
        merged; shutdown is the last chance to collect them. The pull is
        bounded by ``timeout`` and never raises — a hung or dead target
        must not block shutdown — recording a ``telemetry.pull_failed``
        event instead so the loss is visible in the trace.
        """
        recorder = telemetry.get()
        if recorder is None:
            return
        try:
            records = self.backend.fetch_target_telemetry(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - best effort by contract
            telemetry.event(
                "telemetry.pull_failed", category="telemetry",
                error=type(exc).__name__, detail=str(exc),
            )
            telemetry.count("telemetry.pull_failures")
            return
        if records:
            recorder.ingest(records)

    def shutdown(self) -> None:
        """Terminate target message loops and the backend (idempotent).

        Leaked target buffers (allocated but never freed) are reported
        via :class:`ResourceWarning` — target memory is a real resource
        on long-lived servers. Each entry names the owning node, address,
        size and, when telemetry was enabled at allocation time, the
        ``offload.allocate`` span id, so the trace pinpoints the leaking
        call site (span id 0 means telemetry was off).

        When telemetry is recording and the backend can fetch
        target-side records, they are drained (best effort, short
        timeout) before the transport closes.
        """
        if not self._shutdown:
            self._shutdown = True
            # A clean shutdown is not a crash: leave the flight
            # recorder's bundle scope before futures are torn down.
            flightrecorder.detach_runtime(self)
            self._drain_target_telemetry()
            if self._live_buffers:
                pointers = ", ".join(
                    f"node {node} @ {addr:#x} "
                    f"({ptr.nbytes} B, alloc span {span_id:#x})"
                    for (node, addr), (ptr, span_id) in sorted(
                        self._live_buffers.items()
                    )
                )
                warnings.warn(
                    f"Runtime.shutdown with {len(self._live_buffers)} leaked "
                    f"target buffer(s): {pointers}",
                    ResourceWarning,
                    stacklevel=2,
                )
                telemetry.count("buffers.leaked", len(self._live_buffers))
            self.backend.shutdown()

    def _check_running(self) -> None:
        if self._shutdown:
            raise OffloadError("runtime already shut down")

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
