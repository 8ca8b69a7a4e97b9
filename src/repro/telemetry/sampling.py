"""Head-based trace sampling plus tail-based retention.

Recording every span of every offload is right for a test run, but it
is exactly what a production offload path cannot afford. This module splits the decision in two, mirroring how OTel-style
collectors do it:

* **Head sampling** (:class:`HeadSampler`): at trace mint time, a
  trace-id-consistent coin flip marks the context ``sampled`` or not.
  The decision is a pure function of the trace id's low 64 bits, so any
  process seeing the same id — the VH runtime, the forked TCP server —
  agrees without coordination; the bit travels in the v2 active-message
  header's flag byte.
* **Tail retention** (:class:`TailPipeline`): unsampled traces are not
  simply discarded. Their spans are *staged* in a bounded side table
  keyed by trace id; when the offload completes, the pipeline folds the
  staged spans into the aggregate histograms and then decides: traces
  that errored or ran slower than the rolling p99 are promoted into the
  recorder ring as if they had been sampled (outliers are never lost),
  everything else is dropped after the fold (fast paths cost aggregates
  only).

:func:`complete_offload` is the single completion hook the runtime
calls for every finished offload — it feeds the kernel's round-trip
histogram, the SLO monitor and the tail pipeline, sampled or not.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.telemetry import context as trace_context
from repro.telemetry import recorder as recorder_mod
from repro.telemetry.metrics import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.recorder import EventRecord, Recorder, SpanRecord

__all__ = ["HeadSampler", "TailPipeline", "complete_offload"]

_ID_MASK = (1 << 64) - 1


class HeadSampler:
    """Trace-id-consistent probabilistic sampler.

    ``rate`` is the fraction of traces recorded at the head (0.0 — none,
    1.0 — all). The decision compares the trace id's low 64 bits against
    ``rate * 2**64``: ids are uniform random, so the hit rate converges
    to ``rate``, and every process evaluating the same id reaches the
    same verdict — no coordination, no extra header field.
    """

    __slots__ = ("rate", "_threshold")

    def __init__(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._threshold = round(rate * float(_ID_MASK + 1))

    def decide(self, trace_id: int) -> bool:
        return (trace_id & _ID_MASK) < self._threshold

    def new_trace(self) -> trace_context.TraceContext:
        """Mint a root context carrying this sampler's verdict
        (:meth:`decide`, written out)."""
        trace_id = trace_context.new_trace_id()
        return trace_context.TraceContext(
            trace_id, 0, (trace_id & _ID_MASK) < self._threshold)


class TailPipeline:
    """Bounded stage-then-decide store for unsampled traces.

    Parameters
    ----------
    max_pending:
        Maximum traces staged at once; the oldest is evicted (its spans
        were already folded into aggregates at stage time) when a new
        trace would exceed it. Bounds memory against leaked futures or a
        forked process that inherits the table.
    max_records_per_trace:
        Per-trace staging cap; beyond it further records are dropped and
        counted.
    window:
        Rolling window of recent round-trip durations (sampled and
        unsampled) from which the slow-outlier threshold is computed.
    min_samples:
        Completions required before the p99 threshold is trusted; until
        then only errored traces are retained.
    """

    #: Retention threshold percentile of the rolling window: "slower
    #: than p99 of recent traffic is an outlier".
    TAIL_PERCENTILE = 99.0

    def __init__(
        self,
        *,
        max_pending: int = 256,
        max_records_per_trace: int = 128,
        window: int = 512,
        min_samples: int = 20,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.max_pending = max_pending
        self.max_records_per_trace = max_records_per_trace
        self.min_samples = max(1, min_samples)
        self._lock = threading.Lock()
        self._pending: dict[str, list[Any]] = {}
        self._window = max(self.min_samples, window)
        self._durations: deque[float] = deque(maxlen=self._window)
        # Sorting the whole window per completion would dominate the
        # unsampled fast path, so the percentile is cached and refreshed
        # every window/16 completions — tail thresholds track traffic
        # shifts within a few dozen operations, which is all they need.
        self._threshold_refresh = max(1, self._window // 16)
        self._threshold_stale = self._threshold_refresh
        self._threshold_cache: float | None = None
        self.staged = 0
        self.evicted = 0
        self.overflowed = 0

    # -- staging -----------------------------------------------------------
    def stage(self, record: "SpanRecord | EventRecord") -> None:
        """Hold one unsampled record pending the completion verdict.

        The caller (the recorder) has already folded the record into the
        aggregate histograms, so eviction loses detail, never data.
        """
        trace_id = record.trace_id
        if not trace_id:
            return
        with self._lock:
            staged = self._pending.get(trace_id)
            if staged is None:
                while len(self._pending) >= self.max_pending:
                    evicted_id = next(iter(self._pending))
                    del self._pending[evicted_id]
                    self.evicted += 1
                staged = self._pending[trace_id] = []
            if len(staged) >= self.max_records_per_trace:
                self.overflowed += 1
                return
            staged.append(record)
            self.staged += 1

    # -- completion --------------------------------------------------------
    def _tail_threshold_locked(self) -> float | None:
        if len(self._durations) < self.min_samples:
            return None
        self._threshold_cache = percentile(self._durations, self.TAIL_PERCENTILE)
        self._threshold_stale = 0
        return self._threshold_cache

    def complete(
        self,
        recorder: "Recorder",
        ctx: trace_context.TraceContext,
        *,
        duration_ns: int,
        error: bool = False,
        kernel: str = "",
    ) -> bool:
        """Settle one finished offload; returns True if spans survive.

        Sampled traces only feed the rolling duration window (their
        spans already live in the ring). Unsampled traces pop their
        staged records, attribute their phase durations to ``kernel``
        (``kernel.<kernel>.<phase>``), and are promoted into the ring
        when errored or slower than the window's tail threshold, dropped
        otherwise.
        """
        duration = float(duration_ns)
        sampled = ctx.sampled
        with self._lock:
            threshold = self._threshold_cache
            if threshold is None or self._threshold_stale >= self._threshold_refresh:
                threshold = self._tail_threshold_locked()
            self._durations.append(duration)
            self._threshold_stale += 1
            if sampled:
                return True
            staged = self._pending.pop(ctx.trace_id_hex, None)
        if staged is None:
            return False
        if kernel:
            for record in staged:
                if record.kind == "span":
                    recorder.metrics.log_histogram(
                        f"kernel.{kernel}.{record.name}"
                    ).observe(record.duration_ns / 1e9)
        slow = threshold is not None and duration > threshold
        if not (error or slow):
            recorder.counters["trace.tail_dropped"].inc()
            return False
        recorder.ingest(staged)
        recorder.counters["trace.tail_retained"].inc()
        if error:
            recorder.counters["trace.tail_retained_error"].inc()
        if slow:
            recorder.counters["trace.tail_retained_slow"].inc()
        return True

    def pending_traces(self) -> int:
        with self._lock:
            return len(self._pending)

    def clear(self) -> None:
        """Drop all staged records and the rolling window (fork/tests)."""
        with self._lock:
            self._pending.clear()
            self._durations.clear()
            self._threshold_cache = None
            self._threshold_stale = self._threshold_refresh


def complete_offload(
    ctx: trace_context.TraceContext | None,
    *,
    kernel: str,
    duration_ns: int,
    error: bool = False,
    recorder: "Recorder | None" = None,
    tenant: str | None = None,
    node: int | None = None,
) -> None:
    """Fold one finished offload into every aggregate consumer.

    Called by the runtime/future layer exactly once per completed
    offload (sampled or not): ``kernel.<kernel>.offload`` (and
    ``.errors``), SLO windows, and the tail pipeline's keep/drop verdict.
    A no-op while telemetry is off.
    ``tenant`` (when the QoS layer tagged the offload) routes the
    observation into that tenant's own SLO windows as well. ``node``
    (the target the invocation was posted to) additionally feeds the
    per-target ``target.reply.<node>`` histogram and
    ``target.errors.<node>`` counter — but only while a TSDB is
    installed, so the per-target cardinality is paid exactly when the
    scoreboard consuming it exists.
    """
    if recorder is None:
        recorder = recorder_mod.get()
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
    if node is not None and recorder.tsdb is not None:
        recorder.metrics.log_histogram(f"target.reply.{node}").observe(
            duration_ns / 1e9
        )
        if error:
            recorder.metrics.counter(f"target.errors.{node}").inc()
    slo = recorder.slo
    if slo is not None:
        slo.observe("offload", duration_ns, error=error, tenant=tenant)
    pipeline = recorder.pipeline
    if pipeline is not None and ctx is not None:
        pipeline.complete(recorder, ctx, duration_ns=duration_ns, error=error,
                          kernel=kernel)
