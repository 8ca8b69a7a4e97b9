"""Telemetry: tracing, metrics and profiling of the real offload path.

The sim layer decomposes *virtual* time (:mod:`repro.sim.trace`); this
subsystem decomposes *wall-clock* time on the functional backends — the
measurement substrate behind every latency claim about the real path,
mirroring how the paper argues its 6.1 µs vs 432 µs breakdown (Fig. 9).

Layout:

* :mod:`repro.telemetry.recorder` — span/event recorder
  (``perf_counter_ns``, thread-safe, ring-buffered, free while
  disabled) plus the module-level ``enable()/span()/event()/count()``
  switchboard used by the instrumented runtime, HAM and backend code;
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms with a
  snapshot API: the one aggregate store;
* :mod:`repro.telemetry.signals` — the table declaring every series
  that store may hold (name, kind, unit, help, consumer);
* :mod:`repro.telemetry.export` — the Chrome ``trace_event`` JSON
  exporter and its parser (round-trippable), the one trace file format;
* :mod:`repro.telemetry.context` — the distributed trace context
  (``trace_id`` / parent span) minted per offload and
  carried in the version-2 active-message header across processes;
* :mod:`repro.telemetry.distributed` — per-message groupings and
  critical paths of traces that span host and target;
* :mod:`repro.telemetry.report` — ``python -m repro.telemetry.report``,
  per-phase latency percentiles, per-message groupings, critical paths
  and per-kernel profiles from a trace file — or a post-mortem view of
  a flight-recorder crash bundle directory;
* :mod:`repro.telemetry.flightrecorder` — always-on black-box ring of
  control-plane events, dumped as a crash bundle on offload errors,
  peer death, ``SIGUSR2`` or exit-with-pending;
* :mod:`repro.telemetry.inspect` — :func:`~repro.telemetry.inspect.snapshot`,
  the merged host + target live-state snapshot behind
  ``offload.introspect()``.

Quick start::

    from repro import telemetry
    from repro.telemetry import export

    telemetry.enable()
    ... run offloads ...
    export.write_chrome_trace("trace.json", telemetry.get())

Phase taxonomy (span names) of one offload, host then target:
``offload.serialize`` -> ``offload.enqueue`` -> ``offload.transport``
-> ``offload.execute`` -> ``offload.reply`` -> ``offload.deserialize``.
See ``docs/observability.md`` for the full catalog.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - at run time: lazy_exports below
    from repro.telemetry.context import TraceContext, activate, current, new_trace
    from repro.telemetry.distributed import (
        critical_path, group_by_trace, trace_summary,
    )
    from repro.telemetry.flightrecorder import FlightRecorder
    from repro.telemetry.metrics import (
        Counter, Gauge, LogHistogram, MetricsRegistry, percentile,
    )
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.recorder import (
        EventRecord, Recorder, SpanRecord, complete_offload, count, current_span_id,
        disable, enable, enabled, event, gauge, get, span,
    )

__all__ = [
    "Counter", "EventRecord", "FlightRecorder",
    "Gauge", "LogHistogram", "MetricsRegistry",
    "Recorder", "SpanRecord", "TelemetryConfig",
    "TraceContext", "activate", "complete_offload",
    "count", "critical_path", "current", "current_span_id",
    "disable", "enable", "enabled", "event", "gauge", "get",
    "group_by_trace", "new_trace", "percentile",
    "span", "trace_summary",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.telemetry.context": ("TraceContext", "activate", "current", "new_trace"),
    "repro.telemetry.distributed": (
        "critical_path", "group_by_trace", "trace_summary",
    ),
    "repro.telemetry.flightrecorder": ("FlightRecorder",),
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "LogHistogram", "MetricsRegistry", "percentile",
    ),
    "repro.telemetry.config": ("TelemetryConfig",),
    "repro.telemetry.recorder": (
        "EventRecord", "Recorder", "SpanRecord", "complete_offload", "count",
        "current_span_id", "disable", "enable", "enabled", "event", "gauge", "get",
        "span",
    ),
})
