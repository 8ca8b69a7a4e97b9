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
   which the phase histograms share. A traced offload opens no span
   for its host phases: an :class:`OffloadTrace` is stamped as they run
   and committed once, where the offload settles — its records, its
   phase folds and its counters under one acquisition of the
   ring's lock, which every instrument of the recorder's shares — and
   is read back as its records: the five host phases and the target's
   ``offload.execute``, whose duration the target's reply carries.
   Instruments are resolved once per name (``Recorder.counters``, the
   per-kernel and per-phase caches): a hit is a subscript. The ring is
   bounded (:class:`collections.deque` with ``maxlen``, counting
   records): old records are dropped and counted, never grown.
   Per-offload figures: ``docs/observability.md`` ("What tracing
   costs"), bounded by ``tests/offload/test_offload_budget.py``.
3. **Thread-safe.** Appends, commits and folds are locked; span nesting
   is tracked per thread, so concurrent offloads interleave correctly in
   the trace (``tests/telemetry/test_recording_contention.py``).

Spans nest: a span opened while another is active — or while an
offload's phase runs — records it as its parent, which is how the
exporters reconstruct the
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
    "OffloadTrace",
    "Recorder",
    "SpanRecord",
    "complete_offload",
    "count",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "get",
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
    """Ids of the spans open on one thread, innermost last, ``tid``, the
    thread's id, and ``offload``, the :class:`OffloadTrace` the thread's
    next serialize stamps: what a span or a phase reads of its thread,
    in one object."""

    __slots__ = ("tid", "offload")
    tid: int
    offload: "OffloadTrace | None"


class _ThreadState(threading.local):
    """Per-thread recording state (set up on a thread's first access)."""

    def __init__(self) -> None:
        self.stack = _SpanStack()
        self.stack.tid = threading.get_ident()
        self.stack.offload = None


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
    the span under it.
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
        """Fold the span into its phase histogram and keep it in the ring."""
        recorder = self._recorder
        end_ns = recorder._clock()
        stack = self._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        ctx = self.ctx
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
        record.trace_id = "" if ctx is None else ctx.trace_id_hex
        hist = recorder._phase_hists[name]
        # One lock: the phase histograms share the ring's.
        with recorder._lock:
            hist.fold(duration_ns / 1e9)
            recorder._ring.append(record)
            recorder._recorded += 1
        return False


#: The phases of one offload, numbered as their span ids are reserved:
#: one draw of the id counter, ``span_id + phase`` each. The serialize id
#: is the v2 header's remote parent. The host stamps five; the sixth,
#: ``offload.execute``, is the target's, placed at the commit from the
#: duration its reply carries.
SERIALIZE, ENQUEUE, TRANSPORT, REPLY, DESERIALIZE, EXECUTE = range(6)
PHASES = ("offload.serialize", "offload.enqueue", "offload.transport",
          "offload.reply", "offload.deserialize", "offload.execute")
#: The order an offload's records are read in: each phase as it ends (an
#: execute ends before its reply, a reply inside its transport).
_RECORD_ORDER = (SERIALIZE, ENQUEUE, EXECUTE, REPLY, TRANSPORT, DESERIALIZE)
#: Record ids are drawn this far apart, so an offload's phases share one.
_ID_STRIDE = 8


class OffloadTrace:
    """The record of one traced offload: the host's five phases stamped
    as they run and the target's execute time, committed once when the
    offload settles.

    ``Runtime._offload`` starts one, next to the offload's trace context
    ``ctx``; it waits on the thread for the offload's serialize
    (:func:`~repro.ham.execution.sized_invoke_parts`), which takes it;
    from there it rides with the offload — through the backend's sync
    call, or on its :class:`~repro.backends.base.InvokeHandle` to the
    future's wait. Each phase writes its clock readings into
    ``starts``/``ends`` (0: the phase did not run) and its attributes into
    the slots below, opening no span: :meth:`run` keeps the phase's id
    on the running thread's span stack meanwhile, so a span or event
    nested in a phase (a kernel's span on local, a fault event) names
    it as its parent. The reply's version-3 header adds the target's pid
    and execute ns (:func:`~repro.ham.execution.unpack_result`).
    :meth:`Recorder.commit_offload` keeps the whole offload as one ring
    entry, read back as the records its phases stand for
    (:meth:`records`).
    """

    __slots__ = ("recorder", "clock", "span_id", "parent_id", "ctx",
                 "label", "stack", "wait_stack", "starts", "ends", "nbytes",
                 "corr", "node", "transport", "reply_bytes", "result_bytes",
                 "error_phase", "error", "target_pid", "execute_ns",
                 "execute_error", "folds")

    def __init__(self, recorder: "Recorder", ctx: Any, label: str) -> None:
        stack = recorder._thread.stack
        # Left on the thread for the offload's serialize to take; the
        # caller takes it off again once the backend call returns.
        stack.offload = self
        self.recorder = recorder
        self.clock = recorder._clock
        # Recorder._next_id(), written out: the phases' ids follow it.
        self.span_id = (_PID << 40) | next(recorder._ids)
        if stack:
            self.parent_id = stack[-1]
        else:
            self.parent_id = 0 if ctx is None else ctx.span_id
        #: The offload's trace context: the v2 header's.
        self.ctx = ctx
        self.label = label
        #: The issuing thread's stack (serialize, enqueue, a sync's wait)
        #: and the waiting thread's (a future's transport, reply and
        #: deserialize): the records carry their threads' ids.
        self.stack = self.wait_stack = stack
        self.starts = [0] * 6
        self.ends = [0] * 6
        #: INVOKE bytes; the correlation id; the node of local's transport
        #: (``None``: a wire's); the reply frame's transport and bytes;
        #: the RESULT message's bytes.
        self.nbytes = self.corr = self.reply_bytes = self.result_bytes = 0
        self.node: int | None = None
        self.transport = ""
        #: The phase an exception ended, and its type's name.
        self.error_phase = -1
        self.error = ""
        #: What the reply reports of the target: the pid that executed
        #: the INVOKE (0: no report), how long it took there, and the
        #: type of the exception it raised, if any.
        self.target_pid = self.execute_ns = 0
        self.execute_error = ""
        #: ``(phase, histogram, seconds)`` of every phase that ran, fixed
        #: by the commit: what the records are read from.
        self.folds: list[tuple[int, LogHistogram, float]] = []

    def run(self, phase: int, stack: _SpanStack, fn: Any, *args: Any) -> Any:
        """``fn(*args)`` as ``phase``: stamped, with the phase's id on
        ``stack`` (the running thread's) while it runs; an exception
        ends the phase and is its ``error``."""
        clock = self.clock
        self.starts[phase] = clock()
        stack.append(self.span_id + phase)
        try:
            result = fn(*args)
        except BaseException as exc:
            stack.pop()
            self.failed(phase, exc)
            raise
        stack.pop()
        self.ends[phase] = clock()
        return result

    def failed(self, phase: int, exc: BaseException) -> None:
        """``phase`` ended by raising ``exc``, its ``error``."""
        self.ends[phase] = self.clock()
        self.error_phase = phase
        self.error = type(exc).__name__

    def stamp_reply(self, transport: str, nbytes: int) -> None:
        """Telemetry phase ``offload.reply``: the offload's reply frame
        (``nbytes`` with its framing) is in hand, off ``transport``."""
        clock = self.clock
        self.starts[REPLY] = clock()
        self.transport = transport
        self.reply_bytes = nbytes
        self.ends[REPLY] = clock()

    def place_execute(self) -> None:
        """Stamp phase ``offload.execute`` from what the reply reported:
        ``execute_ns``, centred in the window from the INVOKE leaving the
        host to its reply being read — enqueue's end to the reply's
        start on a framed transport, the transport phase elsewhere — and
        clamped to it, so the record never leaves its parent."""
        starts, ends = self.starts, self.ends
        if ends[ENQUEUE] and starts[REPLY]:
            low, high = ends[ENQUEUE], starts[REPLY]
        else:
            low, high = starts[TRANSPORT], ends[TRANSPORT]
        if not (low and high):
            return
        if low > high:  # another thread read the reply before the
            low = high  # poster's enqueue ended: it closes the window
        window = high - low
        duration = self.execute_ns if self.execute_ns < window else window
        starts[EXECUTE] = start = low + (window - duration) // 2
        ends[EXECUTE] = start + duration

    def records(self) -> list[SpanRecord]:
        """The committed phases as records, field for field what their
        spans made, in the order those were appended."""
        pid = self.span_id >> 40
        ctx = self.ctx
        trace_id = "" if ctx is None else ctx.trace_id_hex
        records = []
        for phase, _hist, _seconds in self.folds:
            start = self.starts[phase]
            record = SpanRecord.__new__(SpanRecord)
            record.name = PHASES[phase]
            record.category = "offload"
            record.start_ns = start
            record.duration_ns = self.ends[phase] - start
            record.span_id = self.span_id + phase
            record.parent_id = (self.span_id + TRANSPORT
                                if phase == REPLY or phase == EXECUTE
                                else self.parent_id)
            record.pid = pid
            record.tid = (self.stack if phase <= ENQUEUE else self.wait_stack).tid
            if phase == EXECUTE and self.target_pid != pid:
                # Another process's thread: not one of ours.
                record.pid, record.tid = self.target_pid, 0
            record.attrs = self._attrs(phase)
            record.trace_id = trace_id
            records.append(record)
        return records

    def _attrs(self, phase: int) -> dict[str, Any]:
        if phase == EXECUTE:
            attrs: dict[str, Any] = {"bytes": self.nbytes, "handler": self.label}
            if self.execute_error:
                attrs["error"] = self.execute_error
            return attrs
        if phase == SERIALIZE:
            attrs = {"functor": self.label}
            if self.nbytes:  # serialized: the size is known
                attrs["bytes"] = self.nbytes
        elif phase == ENQUEUE:
            attrs = {"bytes": self.nbytes, "functor": self.label, "corr": self.corr}
        elif phase == TRANSPORT:
            attrs = ({"label": self.label} if self.node is None
                     else {"node": self.node, "bytes": self.nbytes})
        elif phase == REPLY:
            attrs = {"transport": self.transport, "bytes": self.reply_bytes}
        else:
            attrs = {"bytes": self.result_bytes}
        if phase == self.error_phase:
            attrs["error"] = self.error
        return attrs


def _expanded(held: list[Any]) -> list[SpanRecord | EventRecord]:
    """The records ring items ``held`` (oldest first) stand for. An
    offload's entry is held once per record, and the ring drops the
    oldest first: a run of ``n`` holds stands for its newest ``n``."""
    records: list[SpanRecord | EventRecord] = []
    entry, run = None, 0
    for item in held:
        if item is entry:
            run += 1
            continue
        if entry is not None:
            records += entry.records()[-run:]
            entry = None
        if item.__class__ is OffloadTrace:
            entry, run = item, 1
        else:
            records.append(item)
    if entry is not None:
        records += entry.records()[-run:]
    return records


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
        #: Records, oldest first; a committed offload is held once per
        #: record it stands for (:func:`_expanded` reads them back).
        self._ring: deque[SpanRecord | EventRecord | OffloadTrace] = deque(
            maxlen=capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(_ID_STRIDE, _ID_STRIDE)
        self._thread = _ThreadState()
        self._recorded = 0
        #: The one aggregate store: every counter, gauge and histogram
        #: of this process, each declared in :mod:`repro.telemetry.signals`.
        self.metrics = MetricsRegistry(SIGNALS)
        # Instrument caches beside the registry: a span or a completion
        # of every offload reads one of these with a subscript, so the
        # name is built and looked up in the registry once per phase,
        # kernel or counter, not once per offload. Every instrument they
        # resolve shares the ring's lock, so an offload's commit updates
        # them all under one acquisition (:meth:`commit_offload`).
        self._phase_hists = _Resolved(
            lambda name: self._locked(self.metrics.log_histogram("phase." + name)))
        #: ``kernel.<kernel>.offload`` by kernel (:meth:`kernel_offload`).
        self._kernel_hists: dict[str, LogHistogram] = {}
        #: ``kernel.<kernel>.bytes`` / ``.errors`` by kernel, and the
        #: counters by name (``recorder.counters["offload.issued"]``).
        self.kernel_bytes = _Resolved(lambda kernel: self._locked(
            self.metrics.counter(f"kernel.{kernel}.bytes")))
        self.kernel_errors = _Resolved(lambda kernel: self._locked(
            self.metrics.counter(f"kernel.{kernel}.errors")))
        self.counters = _Resolved(
            lambda name: self._locked(self.metrics.counter(name)))
        #: Clock reading (ns) at the recorder's creation; exporters use
        #: it as the zero point of the trace timeline.
        self.epoch_ns = self._clock()

    # -- recording ---------------------------------------------------------
    def _next_id(self) -> int:
        """Process-unique record id: ``pid`` in the high bits.

        Span ids cross process boundaries (the active-message header
        carries the sender's span id as the remote parent, and traces of
        several processes merge in one report), so two processes must
        never mint the same id — which a forked child would do if ids
        were a bare counter, since fork copies the counter state.
        Linux pids fit in 22 bits (``pid_max`` <= 4194304); 40 bits of
        counter keeps the combined id well inside a signed 64-bit int.
        """
        return (_PID << 40) | next(self._ids)

    def _locked(self, instrument: Any) -> Any:
        """``instrument``, updated under the ring's lock from now on."""
        instrument._lock = self._lock
        return instrument

    def _append(self, record: SpanRecord | EventRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self._recorded += 1

    def kernel_offload(self, kernel: str) -> LogHistogram:
        """``kernel.<kernel>.offload``, resolved once per kernel."""
        hist = self._kernel_hists.get(kernel)
        if hist is None:
            hist = self._kernel_hists[kernel] = self._locked(
                self.metrics.log_histogram(f"kernel.{kernel}.offload"))
        return hist

    def commit_offload(self, trace: OffloadTrace, *, issued: bool = False,
                       duration_ns: int | None = None) -> None:
        """Keep one offload's records and fold what they feed, under one
        acquisition of the ring's lock: the ring entry (held once per
        phase that ran, the target's execute among them), the phases'
        ``phase.*`` histograms, ``kernel.<k>.bytes``, ``offload.issued``
        (``issued``: a sync, whose post and settle are one call) and,
        given the round trip's ``duration_ns``, ``future.settled`` and
        ``kernel.<k>.offload``."""
        if trace.target_pid:
            trace.place_execute()
        starts, ends, phase_hists = trace.starts, trace.ends, self._phase_hists
        folds = trace.folds = [
            (phase, phase_hists[PHASES[phase]], (ends[phase] - starts[phase]) / 1e9)
            for phase in _RECORD_ORDER if starts[phase]
        ]
        kernel = trace.label or "<anonymous>"
        nbytes = trace.nbytes
        sent = self.kernel_bytes[kernel] if nbytes else None
        counters = self.counters
        issued_count = counters["offload.issued"] if issued else None
        if duration_ns is not None:
            settled_count = counters["future.settled"]
            try:
                kernel_hist = self._kernel_hists[kernel]
            except KeyError:
                kernel_hist = self.kernel_offload(kernel)
        count = len(folds)
        # Counters are bumped in place: they share this lock, as the
        # histograms' folds do.
        with self._lock:
            self._ring.extend((trace,) * count)
            self._recorded += count
            for _phase, hist, seconds in folds:
                hist.fold(seconds)
            if sent is not None:
                sent._value += nbytes
            if issued_count is not None:
                issued_count._value += 1
            if duration_ns is not None:
                settled_count._value += 1
                kernel_hist.fold(duration_ns / 1e9)

    def span(self, name: str, category: str = "offload",
             **attrs: Any) -> "_Span":
        """Open a span; finish it by leaving the ``with`` block."""
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
        the event into the black box first)."""
        ctx = trace_context.current()
        stack = self._thread.stack
        if stack:
            parent_id = stack[-1]
        else:
            parent_id = ctx.span_id if ctx is not None else 0
        self._append(self._event_record(
            name, category, parent_id, attrs,
            "" if ctx is None else ctx.trace_id_hex,
        ))

    # -- queries -----------------------------------------------------------
    def records(self) -> list[SpanRecord | EventRecord]:
        """Snapshot of the retained records, oldest first."""
        with self._lock:
            held = list(self._ring)
        return _expanded(held)

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
    trigger) and, while telemetry records, into the trace ring
    (:meth:`Recorder.event`).
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


def complete_offload(
    *,
    kernel: str,
    duration_ns: int,
    error: bool = False,
    recorder: Recorder | None = None,
) -> None:
    """Fold one finished offload into every aggregate consumer.

    Called by the future layer once per completed offload that keeps
    no record (one issued before telemetry was enabled; a traced one is
    folded by :meth:`Recorder.commit_offload`): ``kernel.<kernel>.offload``
    (and ``.errors``). A no-op while telemetry is off.
    """
    if recorder is None:
        recorder = _RECORDER
        if recorder is None:
            return
    name = kernel or "<anonymous>"
    try:
        hist = recorder._kernel_hists[name]
    except KeyError:
        hist = recorder.kernel_offload(name)
    hist.observe(duration_ns / 1e9)
    if error:
        recorder.kernel_errors[name].inc()


def current_span_id() -> int:
    """Innermost open span id on this thread (0 when disabled/none)."""
    recorder = _RECORDER
    if recorder is None:
        return 0
    return recorder.current_span_id()
