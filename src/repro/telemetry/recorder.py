"""Low-overhead span/event recorder for the real offload path.

The sim layer decomposes *virtual* time via :class:`repro.sim.trace.Tracer`;
this module does the same for *wall-clock* execution on the functional
backends. Design constraints, in order:

1. **Free when off.** Every instrumented call site funnels through the
   module-level :func:`span` / :func:`count` helpers, which reduce to a
   single global read plus a cached no-op object while telemetry is
   disabled — the hot path allocates nothing and records nothing
   (guarded by ``tests/telemetry/test_overhead.py`` and, for a whole
   offload, ``tests/offload/test_offload_budget.py``). :func:`event` is
   the exception by design: control-plane events are off the fault-free
   path and always reach the black box.
2. **Cheap when on.** A recorded span is one small object, two clock
   reads (:func:`time.perf_counter_ns`), one record and one lock:
   :func:`span` builds the span itself; enter reads the thread's span
   stack (which carries the thread id) and the trace context once each,
   and keeps both for the exit; the pid is cached (refreshed in a forked
   child), a trace context carries its hex id as a plain attribute, and
   the exit fills an unfrozen slots record field by field, then folds
   the phase histogram and appends the record under the ring's lock,
   which the phase histograms share. Instruments are resolved once per
   name (``Recorder.counters``, the per-kernel and per-phase caches): a
   hit is a subscript. The ring is bounded
   (:class:`collections.deque` with ``maxlen``): old records are dropped
   and counted, never grown. Per-offload figures: ``docs/observability.md``
   ("What tracing costs"), bounded by ``tests/offload/test_offload_budget.py``.
3. **Thread-safe.** Appends and phase folds are locked; span nesting is
   tracked per thread, so concurrent offloads interleave correctly in
   the trace (``tests/telemetry/test_recording_contention.py``).

Spans nest: a span opened while another is active records it as its
parent, which is how the exporters reconstruct the
serialize -> enqueue -> transport -> execute -> reply -> deserialize
flame of one offload. Use the module like::

    from repro.telemetry import recorder as telemetry

    telemetry.enable()
    with telemetry.span("offload.sync", node=1):
        ...
    records = telemetry.get().records()
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry import context as trace_context
from repro.telemetry import flightrecorder
from repro.telemetry.metrics import LogHistogram, MetricsRegistry
from repro.telemetry.signals import SIGNALS

__all__ = [
    "EventRecord",
    "Recorder",
    "SpanRecord",
    "count",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "get",
    "kernel_percentile",
    "span",
]


#: The active trace context (``trace_context.current``), read once per span.
_current_trace = trace_context.current

#: This process's id, read once (``os.getpid()`` is a system call and every
#: record carries the pid twice) and again first thing in a forked child.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)


@dataclass(slots=True)
class SpanRecord:
    """One finished span: a named, attributed stretch of wall time.

    Never modified once built (:func:`dataclasses.replace` derives a
    copy); not frozen, because a frozen dataclass's ``__init__`` stores
    every field through ``object.__setattr__`` — 7x the cost per span.
    """

    name: str
    category: str
    start_ns: int
    duration_ns: int
    span_id: int
    parent_id: int
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    #: 32-char hex id of the distributed trace this span belongs to
    #: ("" when recorded outside any trace). Spans of one offload share
    #: it across processes; see :mod:`repro.telemetry.context`.
    trace_id: str = ""

    kind = "span"

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


@dataclass(slots=True)
class EventRecord:
    """One instantaneous occurrence (fault injected, retry, transition)."""

    name: str
    category: str
    ts_ns: int
    span_id: int
    parent_id: int
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Distributed-trace id, as on :class:`SpanRecord`.
    trace_id: str = ""

    kind = "event"


class _NoopSpan:
    """The disabled-path span: a shared, stateless context manager."""

    __slots__ = ()

    span_id = 0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self


#: Singleton handed out by :func:`span` while telemetry is disabled.
NOOP_SPAN = _NoopSpan()


class _SpanStack(list):
    """Ids of the spans open on one thread, innermost last, and ``tid``,
    the thread's id: what a span reads of its thread, in one object."""

    __slots__ = ("tid",)
    tid: int


class _ThreadState(threading.local):
    """Per-thread recording state (set up on a thread's first access)."""

    def __init__(self) -> None:
        self.stack = _SpanStack()
        self.stack.tid = threading.get_ident()


class _Resolved(dict):
    """``name -> instrument``, resolved by ``resolve(name)`` on the first
    lookup of a name: a hit is a subscript, no call."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Any) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, name: str) -> Any:
        instrument = self[name] = self._resolve(name)
        return instrument


class _Span:
    """An open span; created by :meth:`Recorder.span`, closed by ``with``.

    ``ctx`` is the trace context read once, on enter: the exit records
    the span under it. The one caller that closes a span under another
    trace (:func:`repro.backends._client.close_reply_span`) sets it
    before the exit.
    """

    __slots__ = ("_recorder", "name", "category", "attrs", "span_id",
                 "parent_id", "_start_ns", "_stack", "ctx")

    def __init__(self, recorder: "Recorder", name: str, category: str,
                 attrs: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.category = category
        self.attrs = attrs

    def set(self, key: str, value: Any) -> "_Span":
        """Attach an attribute mid-span (e.g. byte counts known late)."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        stack = self._stack = recorder._thread.stack
        ctx = self.ctx = _current_trace()
        if stack:
            self.parent_id = stack[-1]
        elif ctx is not None:
            # Top of the local stack: adopt the distributed trace's
            # remote parent (the host span that built the message this
            # process is executing).
            self.parent_id = ctx.span_id
        else:
            self.parent_id = 0
        # Recorder._next_id(), written out.
        span_id = self.span_id = (_PID << 40) | next(recorder._ids)
        stack.append(span_id)
        self._start_ns = recorder._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        """Fold the span into the aggregates, then keep it: in the ring,
        or staged with the tail pipeline while its trace is unsampled.

        The fold runs for every kept span, so the per-phase latency
        distributions (live-queryable through the metrics snapshot and
        ``/metrics``) never have sampling error.
        """
        recorder = self._recorder
        end_ns = recorder._clock()
        stack = self._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        ctx = self.ctx
        pipeline = None
        if ctx is None:
            trace_id = ""
        else:
            if not ctx.sampled:
                # Unsampled trace: never touches the span ring. With a
                # tail pipeline (the issuing host) the finished span is
                # folded into aggregates and staged pending the
                # completion verdict; without one (the execute-side
                # target) it costs nothing.
                pipeline = recorder.pipeline
                if pipeline is None:
                    return False
            trace_id = ctx.trace_id_hex
        name = self.name
        start_ns = self._start_ns
        duration_ns = end_ns - start_ns
        # SpanRecord(...) written out: ten stores cost less than the
        # dataclass __init__'s frame around them.
        record = SpanRecord.__new__(SpanRecord)
        record.name = name
        record.category = self.category
        record.start_ns = start_ns
        record.duration_ns = duration_ns
        record.span_id = self.span_id
        record.parent_id = self.parent_id
        record.pid = _PID
        record.tid = stack.tid
        record.attrs = attrs
        record.trace_id = trace_id
        hist = recorder._phase_hists[name]
        # One lock: the phase histograms share the ring's.
        with recorder._lock:
            hist.fold(duration_ns / 1e9, trace_id or None)
            if pipeline is None:
                recorder._ring.append(record)
                recorder._recorded += 1
        if pipeline is not None:
            pipeline.stage(record)
        return False


class Recorder:
    """Thread-safe, ring-buffered span/event store.

    Parameters
    ----------
    capacity:
        Maximum retained records; older ones are dropped (and counted in
        :attr:`dropped`) once the ring wraps.
    clock_ns:
        Injectable nanosecond clock (tests pass a fake).
    """

    def __init__(self, capacity: int = 65536,
                 clock_ns: Any = time.perf_counter_ns) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._clock = clock_ns
        self._ring: deque[SpanRecord | EventRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread = _ThreadState()
        self._recorded = 0
        #: The one aggregate store: every counter, gauge and histogram
        #: of this process, each declared in :mod:`repro.telemetry.signals`.
        self.metrics = MetricsRegistry(SIGNALS)
        #: Head sampler consulted by the runtime when minting a trace
        #: (``None`` means record everything).
        self.sampler: Any = None
        #: Tail-retention pipeline staging unsampled traces (``None``
        #: without a sampler, and on execute-side processes, where
        #: unsampled spans are skipped).
        self.pipeline: Any = None
        #: SLO burn-rate monitor, fed once per completed offload.
        self.slo: Any = None
        #: In-process time-series store + anomaly detector
        #: (:class:`repro.telemetry.tsdb.Tsdb`); ``None`` keeps history off.
        self.tsdb: Any = None
        # Instrument caches beside the registry: a span or a completion
        # of every offload reads one of these with a subscript, so the
        # name is built and looked up in the registry once per phase,
        # kernel or counter, not once per offload.
        self._phase_hists = _Resolved(self._phase_hist)
        #: ``kernel.<kernel>.offload`` by kernel (:meth:`kernel_offload`).
        self._kernel_hists: dict[str, LogHistogram] = {}
        #: ``kernel.<kernel>.bytes`` / ``.errors`` by kernel, and the
        #: counters by name (``recorder.counters["offload.issued"]``).
        self.kernel_bytes = _Resolved(
            lambda kernel: self.metrics.counter(f"kernel.{kernel}.bytes"))
        self.kernel_errors = _Resolved(
            lambda kernel: self.metrics.counter(f"kernel.{kernel}.errors"))
        self.counters = _Resolved(self.metrics.counter)
        #: Clock reading (ns) at the recorder's creation; exporters use
        #: it as the zero point of the trace timeline.
        self.epoch_ns = self._clock()

    # -- recording ---------------------------------------------------------
    def _next_id(self) -> int:
        """Process-unique record id: ``pid`` in the high bits.

        Span ids cross process boundaries (the active-message header
        carries the sender's span id as the remote parent, and a TCP
        target's records merge into the host trace), so two processes
        must never mint the same id — which a forked server would do if
        ids were a bare counter, since fork copies the counter state.
        Linux pids fit in 22 bits (``pid_max`` <= 4194304); 40 bits of
        counter keeps the combined id well inside a signed 64-bit int.
        """
        return (_PID << 40) | next(self._ids)

    def _phase_hist(self, name: str) -> LogHistogram:
        """``phase.<name>``, folded under the ring's lock, together with
        the record. Exemplars on: phase folds are the one place a
        duration and its trace id meet, so each fat bucket keeps a live
        link to the most recent trace that landed in it."""
        hist = self.metrics.log_histogram("phase." + name, exemplars=True)
        hist._lock = self._lock
        return hist

    def _append(self, record: SpanRecord | EventRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self._recorded += 1

    def kernel_offload(self, kernel: str) -> LogHistogram:
        """``kernel.<kernel>.offload``, resolved once per kernel."""
        hist = self._kernel_hists.get(kernel)
        if hist is None:
            hist = self._kernel_hists[kernel] = self.metrics.log_histogram(
                f"kernel.{kernel}.offload")
        return hist

    def span(self, name: str, category: str = "offload",
             **attrs: Any) -> "_Span | _NoopSpan":
        """Open a span; finish it by leaving the ``with`` block.

        Inside an unsampled trace on a process with no tail pipeline
        (the execute-side target), the span could never be kept, so the
        no-op singleton is returned and the whole enter/exit cost — id
        allocation, clock reads, record construction — vanishes. That
        is what the v2 header's ``sampled`` flag buys the target.
        """
        if self.pipeline is None:
            ctx = trace_context.current()
            if ctx is not None and not ctx.sampled:
                return NOOP_SPAN
        return _Span(self, name, category, attrs)

    def _event_record(self, name: str, category: str, parent_id: int,
                      attrs: dict[str, Any], trace_id: str) -> EventRecord:
        return EventRecord(
            name, category, self._clock(), self._next_id(), parent_id,
            _PID, self._thread.stack.tid, attrs, trace_id,
        )

    def event(self, name: str, category: str = "offload",
              **attrs: Any) -> None:
        """Record an instantaneous event in the trace ring (the
        module-level :func:`event` is the call sites' one call: it drops
        the event into the black box first).

        Inside an unsampled trace the event follows the trace's fate:
        staged with the tail pipeline when one is installed (so a
        retained outlier keeps its ``fault.injected`` breadcrumbs),
        skipped otherwise.
        """
        ctx = trace_context.current()
        stack = self._thread.stack
        if stack:
            parent_id = stack[-1]
        else:
            parent_id = ctx.span_id if ctx is not None else 0
        if ctx is None or ctx.sampled:
            self._append(self._event_record(
                name, category, parent_id, attrs,
                "" if ctx is None else ctx.trace_id_hex,
            ))
            return
        pipeline = self.pipeline
        if pipeline is not None:
            pipeline.stage(self._event_record(
                name, category, parent_id, attrs, ctx.trace_id_hex,
            ))

    def force_event(self, name: str, category: str = "slo",
                    **attrs: Any) -> None:
        """:func:`event` for alert-grade events: black box and trace
        ring, bypassing the sampling gate.

        ``telemetry.slo_breach`` and ``telemetry.anomaly`` must land in
        the ring even when raised mid-flight inside an unsampled trace —
        they describe the aggregate stream, not one trace, so they carry
        no trace id and never ride the tail pipeline. The SLO monitor
        and the anomaly detector hold this method as their ``emit`` sink.
        """
        flightrecorder.get().record(name, category, attrs)
        self._append(self._event_record(name, category, 0, attrs, ""))

    def reset_after_fork(self) -> None:
        """In a forked child: drop what belongs to the parent — its
        records, the forking thread's open spans, a ring lock another
        thread may have held, and the sampler / tail pipeline / SLO
        monitor only the issuing side feeds. Metrics and the id counter
        stay (ids are pid-prefixed)."""
        self.sampler = self.pipeline = self.slo = None
        self._ring = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        for hist in self._phase_hists.values():
            hist._lock = self._lock
        self._thread = _ThreadState()
        self._recorded = 0

    def ingest(self, records: "list[SpanRecord | EventRecord]") -> None:
        """Merge records produced elsewhere (e.g. a target process)."""
        with self._lock:
            for record in records:
                self._ring.append(record)
                self._recorded += 1

    # -- queries -----------------------------------------------------------
    def records(self) -> list[SpanRecord | EventRecord]:
        """Snapshot of the retained records, oldest first."""
        with self._lock:
            return list(self._ring)

    def spans(self, prefix: str = "") -> list[SpanRecord]:
        """Retained spans whose name starts with ``prefix``."""
        return [r for r in self.records()
                if r.kind == "span" and r.name.startswith(prefix)]

    def events(self, prefix: str = "") -> list[EventRecord]:
        """Retained events whose name starts with ``prefix``."""
        return [r for r in self.records()
                if r.kind == "event" and r.name.startswith(prefix)]

    @property
    def recorded(self) -> int:
        """Total records ever appended (including dropped ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Records lost to ring wrap-around."""
        with self._lock:
            return max(0, self._recorded - len(self._ring))

    def current_span_id(self) -> int:
        """Id of the innermost open span on this thread (0 if none)."""
        stack = self._thread.stack
        return stack[-1] if stack else 0

    def clear(self) -> None:
        """Drop all retained records (keeps metrics and the id counter)."""
        with self._lock:
            self._ring.clear()

    def drain(self) -> list[SpanRecord | EventRecord]:
        """Atomically take and clear the retained records."""
        with self._lock:
            records = list(self._ring)
            self._ring.clear()
            return records


# --------------------------------------------------------------------------
# Module-level switchboard: the single global read every call site pays.
# --------------------------------------------------------------------------

_RECORDER: Recorder | None = None


def enable(capacity: int = 65536, *, recorder: Recorder | None = None) -> Recorder:
    """Turn telemetry on (idempotent); returns the active recorder.

    ``recorder`` installs an externally built recorder (tests inject fake
    clocks this way); otherwise a fresh one with ``capacity`` is created.
    Re-enabling while already enabled keeps the existing recorder.
    """
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = recorder if recorder is not None else Recorder(capacity)
    return _RECORDER


def disable() -> Recorder | None:
    """Turn telemetry off; returns the detached recorder (for export)."""
    global _RECORDER
    recorder, _RECORDER = _RECORDER, None
    return recorder


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _RECORDER is not None


def get() -> Recorder | None:
    """The active recorder, or ``None`` while disabled."""
    return _RECORDER


def span(name: str, category: str = "offload", **attrs: Any):
    """Module-level span helper: a no-op singleton while disabled
    (:meth:`Recorder.span` written out — every instrumented site calls this)."""
    recorder = _RECORDER
    if recorder is None:
        return NOOP_SPAN
    if recorder.pipeline is None:
        ctx = trace_context.current()
        if ctx is not None and not ctx.sampled:
            return NOOP_SPAN
    # _Span(recorder, name, category, attrs) written out.
    opened = _Span.__new__(_Span)
    opened._recorder = recorder
    opened.name = name
    opened.category = category
    opened.attrs = attrs
    return opened


def event(name: str, category: str = "offload", **attrs: Any) -> None:
    """The one call for a control-plane event (retry, failover, shed,
    health flip, injected fault): one stream, two retention policies.

    The event always drops into the black-box ring
    (:mod:`repro.telemetry.flightrecorder`: always on, small, dumped on a
    trigger) and, while telemetry records, into the trace ring under the
    sampling rules of :meth:`Recorder.event`.
    """
    flightrecorder.get().record(name, category, attrs)
    recorder = _RECORDER
    if recorder is not None:
        recorder.event(name, category, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Bump a counter metric (no-op while disabled)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.counters[name].inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge metric (no-op while disabled)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.gauge(name).set(value)


def kernel_percentile(kernel: str, q: float, min_samples: int) -> float | None:
    """The ``q``-th percentile (seconds) of ``kernel``'s round trips, or
    ``None`` while telemetry is off or fewer than ``min_samples`` were
    seen — QoS deadline admission and the hedger's trigger then decide
    without an estimate."""
    recorder = _RECORDER
    hist = recorder._kernel_hists.get(kernel) if recorder is not None else None
    if hist is None or hist.count < min_samples:
        return None
    return hist.percentile(q)


def current_span_id() -> int:
    """Innermost open span id on this thread (0 when disabled/none)."""
    recorder = _RECORDER
    if recorder is None:
        return 0
    return recorder.current_span_id()
