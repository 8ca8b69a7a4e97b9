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
   reads (:func:`time.perf_counter_ns`) and one record: :func:`span`
   builds the span itself; enter and exit each read the thread's state
   once (span stack and thread id, set up once per thread) and the trace
   context at most once; the pid is cached (refreshed in a forked child),
   a trace formats its hex id once, and the record is an unfrozen slots
   dataclass built positionally. Two locks per record, each around a
   read-modify-write: the phase histogram's and the ring's; instrument
   look-ups read the registry without its lock. The ring is bounded
   (:class:`collections.deque` with ``maxlen``): old records are dropped
   and counted, never grown. Per-offload figures: ``docs/observability.md``
   ("What tracing costs"), bounded by ``tests/offload/test_offload_budget.py``.
3. **Thread-safe.** Appends are locked; span nesting is tracked per
   thread, so concurrent offloads interleave correctly in the trace.

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


class _ThreadState(threading.local):
    """Per-thread recording state (set up on a thread's first access)."""

    def __init__(self) -> None:
        #: Ids of the spans open on this thread, innermost last.
        self.stack: list[int] = []
        self.tid = threading.get_ident()


class _Span:
    """An open span; created by :meth:`Recorder.span`, closed by ``with``."""

    __slots__ = ("_recorder", "name", "category", "attrs", "span_id",
                 "parent_id", "_start_ns")

    def __init__(self, recorder: "Recorder", name: str, category: str,
                 attrs: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.category = category
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self._start_ns = 0

    def set(self, key: str, value: Any) -> "_Span":
        """Attach an attribute mid-span (e.g. byte counts known late)."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        stack = recorder._thread.stack
        if stack:
            self.parent_id = stack[-1]
        else:
            # Top of the local stack: adopt the distributed trace's
            # remote parent (the host span that built the message this
            # process is executing), if one is active.
            ctx = trace_context.current()
            if ctx is not None:
                self.parent_id = ctx.span_id
        # Recorder._next_id(), written out.
        span_id = self.span_id = (_PID << 40) | next(recorder._ids)
        stack.append(span_id)
        self._start_ns = recorder._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        recorder = self._recorder
        end_ns = recorder._clock()
        thread = recorder._thread
        stack = thread.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        ctx = trace_context.current()
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
        start_ns = self._start_ns
        recorder._finish_span(SpanRecord(
            self.name, self.category, start_ns, end_ns - start_ns,
            self.span_id, self.parent_id, _PID, thread.tid, self.attrs,
            trace_id,
        ), pipeline)
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
        #: on execute-side processes, where unsampled spans are skipped).
        self.pipeline: Any = None
        #: SLO burn-rate monitor fed by span folds and completions.
        self.slo: Any = None
        #: In-process time-series store + anomaly detector
        #: (:class:`repro.telemetry.tsdb.Tsdb`); ``None`` keeps history off.
        self.tsdb: Any = None
        # Per-phase histogram cache: a span of every offload is folded
        # here, so the registry lookup is paid once per phase name, not
        # once per span.
        self._phase_hists: dict[str, Any] = {}
        # The same per kernel, for ``kernel.<kernel>.offload``.
        self._kernel_hists: dict[str, LogHistogram] = {}
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

    def _finish_span(self, record: SpanRecord, pipeline: Any) -> None:
        """Fold a finished span into the aggregates, then keep it.

        The fold runs for every span — ring-bound or staged with
        ``pipeline`` (an unsampled trace awaiting its verdict) — so the
        per-phase latency distributions (live-queryable through the
        metrics snapshot and ``/metrics``) and the SLO windows never
        have sampling error.
        """
        name = record.name
        hist = self._phase_hists.get(name)
        if hist is None:
            # Exemplars on: phase folds are the one place a duration and
            # its trace id meet, so each fat bucket keeps a live link to
            # the most recent trace that landed in it.
            hist = self._phase_hists[name] = self.metrics.log_histogram(
                "phase." + name, exemplars=True)
        hist.observe(record.duration_ns / 1e9, record.trace_id or None)
        slo = self.slo
        if slo is not None and name in slo.phases:
            slo.observe(name, record.duration_ns,
                        error="error" in record.attrs)
        if pipeline is not None:
            pipeline.stage(record)
        else:
            with self._lock:
                self._ring.append(record)
                self._recorded += 1

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
            _PID, self._thread.tid, attrs, trace_id,
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
    return _Span(recorder, name, category, attrs)


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
        recorder.metrics.counter(name).inc(amount)


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
