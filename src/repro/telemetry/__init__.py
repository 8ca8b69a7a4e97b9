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
  (``trace_id`` / parent span / sampled flag) minted per offload and
  carried in the version-2 active-message header across processes;
* :mod:`repro.telemetry.distributed` — clock-offset estimation
  (ping-pong), record alignment and per-message critical paths for
  two-process timelines;
* :mod:`repro.telemetry.promexport` — Prometheus text-format rendering
  of the metrics snapshot (native ``_bucket`` histogram series for
  log-bucketed instruments) plus a stdlib ``/metrics`` + ``/healthz``
  HTTP endpoint (:class:`~repro.telemetry.promexport.MetricsServer`);
* :mod:`repro.telemetry.sampling` — head-based trace-id-consistent
  sampling plus the tail-retention pipeline that keeps slow/errored
  unsampled traces and drops fast ones after folding aggregates;
* :mod:`repro.telemetry.slo` — declarative SLOs with multi-window
  burn-rate alerting (``telemetry.slo_breach`` events, ``/healthz``
  degradation);
* :mod:`repro.telemetry.tsdb` — bounded in-process time-series store
  (fixed-interval snapshots of the registry into per-series float64
  rings) with ``range``/``rate``/``delta`` queries, the per-target
  :class:`~repro.telemetry.tsdb.Scoreboard` and rolling median/MAD
  anomaly detection feeding hedging and ``/healthz``;
* :mod:`repro.telemetry.report` — ``python -m repro.telemetry.report``,
  per-phase latency percentiles, per-message groupings, critical paths
  and per-kernel profiles from a trace file — or a post-mortem view of
  a flight-recorder crash bundle directory;
* :mod:`repro.telemetry.flightrecorder` — always-on black-box ring of
  control-plane events, dumped as a crash bundle on offload errors,
  peer death, SLO breaches, ``SIGUSR2`` or exit-with-pending;
* :mod:`repro.telemetry.inspect` — :func:`~repro.telemetry.inspect.snapshot`,
  the merged host + target live-state snapshot behind
  ``offload.introspect()`` and the ``/introspect`` endpoint;
* :mod:`repro.telemetry.top` — ``python -m repro.telemetry.top``, a
  live terminal view (`top` for the offload runtime) over
  ``/introspect``.

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
        ClockSync, align_records, critical_path, group_by_trace, trace_summary,
    )
    from repro.telemetry.flightrecorder import FlightRecorder
    from repro.telemetry.metrics import (
        Counter, Gauge, LogHistogram, MetricsRegistry, percentile,
    )
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.promexport import MetricsServer, to_prometheus
    from repro.telemetry.recorder import (
        EventRecord, Recorder, SpanRecord, count, current_span_id, disable, enable,
        enabled, event, gauge, get, span,
    )
    from repro.telemetry.sampling import HeadSampler, TailPipeline, complete_offload
    from repro.telemetry.slo import SLO, SLOMonitor, default_slos
    from repro.telemetry.tsdb import (
        AnomalyDetector, Scoreboard, SeriesRing, TimeSeriesStore, Tsdb, install_tsdb,
    )

__all__ = [
    "AnomalyDetector", "ClockSync", "Counter", "EventRecord", "FlightRecorder",
    "Gauge", "HeadSampler", "LogHistogram", "MetricsRegistry", "MetricsServer",
    "Recorder", "SLO", "SLOMonitor", "Scoreboard", "SeriesRing",
    "SpanRecord", "TailPipeline", "TelemetryConfig", "TimeSeriesStore",
    "TraceContext", "Tsdb", "activate", "align_records", "complete_offload",
    "count", "critical_path", "current", "current_span_id",
    "default_slos", "disable", "enable", "enabled", "event", "gauge", "get",
    "group_by_trace", "install_tsdb", "new_trace", "percentile",
    "span", "to_prometheus", "trace_summary",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.telemetry.context": ("TraceContext", "activate", "current", "new_trace"),
    "repro.telemetry.distributed": (
        "ClockSync", "align_records", "critical_path", "group_by_trace",
        "trace_summary",
    ),
    "repro.telemetry.flightrecorder": ("FlightRecorder",),
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "LogHistogram", "MetricsRegistry", "percentile",
    ),
    "repro.telemetry.config": ("TelemetryConfig",),
    "repro.telemetry.promexport": ("MetricsServer", "to_prometheus"),
    "repro.telemetry.recorder": (
        "EventRecord", "Recorder", "SpanRecord", "count", "current_span_id",
        "disable", "enable", "enabled", "event", "gauge", "get", "span",
    ),
    "repro.telemetry.sampling": ("HeadSampler", "TailPipeline", "complete_offload"),
    "repro.telemetry.slo": ("SLO", "SLOMonitor", "default_slos"),
    "repro.telemetry.tsdb": (
        "AnomalyDetector", "Scoreboard", "SeriesRing", "TimeSeriesStore", "Tsdb",
        "install_tsdb",
    ),
})
