"""Prometheus text-format export and a stdlib ``/metrics`` endpoint.

The metrics registry already produces a JSON-friendly
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`; this module
renders that snapshot in the Prometheus text exposition format (0.0.4)
and serves it live from a daemon-thread HTTP server, so a running
offload session can be scraped without touching the trace ring:

* counters  -> ``repro_<name>_total``
* gauges    -> ``repro_<name>``
* histograms (:class:`~repro.telemetry.metrics.LogHistogram`) -> real
  histogram series: cumulative ``_bucket{le="..."}`` lines ending at
  ``le="+Inf"``, plus ``_sum`` / ``_count`` — the per-phase
  ``phase.offload.*`` and per-kernel ``kernel.<kernel>.*`` latencies
  scrape into native Prometheus quantile queries; ``# HELP`` and
  ``# UNIT`` come from the series' row in :mod:`repro.telemetry.signals`

Exemplars (``# {trace_id="..."} v`` bucket annotations) are only legal
in the OpenMetrics exposition format — the Prometheus 0.0.4 text parser
rejects trailing content after the sample value. The ``/metrics``
handler therefore content-negotiates: scrapers sending ``Accept:
application/openmetrics-text`` get the OpenMetrics rendering (exemplars
plus the mandatory ``# EOF`` trailer); everyone else gets plain 0.0.4
with no exemplars, so a stock Prometheus always scrapes cleanly.

Everything is standard library (``http.server``); no Prometheus client
dependency. :class:`MetricsServer` binds ``127.0.0.1:0`` by default —
an ephemeral loopback port, printed/queried via :attr:`~MetricsServer.address`
— and also answers ``/healthz`` for liveness probes.
:class:`~repro.telemetry.config.TelemetryConfig`, what
``offload.init(telemetry=...)`` accepts, lives in a module of its own
and is re-exported here.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.signals import SIGNALS

__all__ = [
    "MetricsServer",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "TelemetryConfig",
    "sanitize_metric_name",
    "to_prometheus",
]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT = re.compile(r"^[0-9]")

#: Content types served on ``/metrics`` depending on the Accept header.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Map an internal dotted metric name onto the Prometheus grammar.

    ``offload.sync.time`` -> ``repro_offload_sync_time``; any character
    outside ``[a-zA-Z0-9_:]`` becomes ``_`` and a leading digit gets an
    underscore escape.
    """
    sanitized = _INVALID_CHARS.sub("_", name)
    if _LEADING_DIGIT.match(sanitized):
        sanitized = "_" + sanitized
    return prefix + sanitized


def _fmt(value: float) -> str:
    """Prometheus number formatting (repr keeps full float precision)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def to_prometheus(
    snapshot: Mapping[str, Any], prefix: str = "repro_",
    *, openmetrics: bool = False,
) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    ``snapshot`` is the dict from
    :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`:
    ``{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}``.
    A histogram summary's ``buckets`` list becomes cumulative
    ``_bucket{le="..."}`` lines; ``_sum`` is reconstructed as
    ``mean * count`` (exact: mean is total/count).

    ``openmetrics=False`` (the default) renders text format 0.0.4 and
    never emits exemplars — the 0.0.4 parser treats any trailing
    content after the value as a malformed timestamp and fails the
    whole scrape. ``openmetrics=True`` renders OpenMetrics 1.0.0:
    counter metadata drops the ``_total`` suffix from the family name,
    retained bucket exemplars ride along as ``# {trace_id="..."} v``
    annotations and the output ends with the mandatory ``# EOF``.
    ``# UNIT`` is written in 0.0.4 only, where it is a comment: an
    OpenMetrics parser demands the unit as the family name's suffix.
    """
    lines: list[str] = []

    def metadata(family: str, name: str, kind: str) -> None:
        signal = SIGNALS.resolve(name, kind)
        if signal is None:  # a snapshot of some other registry
            lines.append(f"# HELP {family} {kind.capitalize()} {name}")
        else:
            lines.append(f"# HELP {family} {signal.help} ({name})")
            if not openmetrics:
                lines.append(f"# UNIT {family} {signal.unit}")
        lines.append(f"# TYPE {family} {kind}")

    for name, value in snapshot.get("counters", {}).items():
        metric = sanitize_metric_name(name, prefix) + "_total"
        # OpenMetrics names the counter *family* without _total; the
        # sample line keeps the suffix in both formats.
        metadata(metric[: -len("_total")] if openmetrics else metric,
                 name, "counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = sanitize_metric_name(name, prefix)
        metadata(metric, name, "gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        metric = sanitize_metric_name(name, prefix)
        count = summary.get("count", 0)
        total = summary.get("mean", 0.0) * count
        metadata(metric, name, "histogram")
        # Per-bucket exemplars (OpenMetrics: `... # {trace_id="..."} v`)
        # keyed by the same formatted `le` the bucket line will use.
        # Only legal in the OpenMetrics format, never in 0.0.4.
        exemplars: dict[str, tuple[str, float]] = {}
        if openmetrics:
            for bound, trace_id, value in summary.get("exemplars", ()):
                le = "+Inf" if bound == "+Inf" else _fmt(float(bound))
                exemplars[le] = (str(trace_id), float(value))
        saw_inf = False
        for bound, cumulative in summary.get("buckets", ()):
            le = "+Inf" if bound == "+Inf" else _fmt(float(bound))
            saw_inf = saw_inf or le == "+Inf"
            line = f'{metric}_bucket{{le="{le}"}} {cumulative}'
            exemplar = exemplars.get(le)
            if exemplar is not None:
                trace_id, value = exemplar
                line += f' # {{trace_id="{trace_id}"}} {_fmt(value)}'
            lines.append(line)
        if not saw_inf:
            # The +Inf bucket is mandatory in the exposition format.
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{metric}_sum {_fmt(total)}")
        lines.append(f"{metric}_count {count}")
    if openmetrics:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (Prometheus), ``/healthz`` and ``/introspect``
    (JSON)."""

    # Set per-server via the factory in MetricsServer.
    snapshot_fn: Callable[[], Mapping[str, Any]]
    health_fn: Callable[[], Mapping[str, Any]] | None
    introspect_fn: Callable[[], Mapping[str, Any]] | None
    prefix: str

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            # Exemplar syntax is OpenMetrics-only: serve it (plus the
            # `# EOF` trailer) only to scrapers that negotiate for it.
            accept = self.headers.get("Accept", "") or ""
            openmetrics = "application/openmetrics-text" in accept
            body = to_prometheus(
                self.snapshot_fn(), self.prefix, openmetrics=openmetrics
            ).encode()
            content_type = (
                OPENMETRICS_CONTENT_TYPE if openmetrics
                else PROMETHEUS_CONTENT_TYPE
            )
            self._reply(200, body, content_type)
        elif path == "/healthz":
            health: Mapping[str, Any] = {"status": "ok"}
            if self.health_fn is not None:
                health = self.health_fn()
            body = json.dumps(dict(health)).encode()
            self._reply(200, body, "application/json")
        elif path == "/introspect":
            if self.introspect_fn is None:
                self._reply(404, b"introspection not wired\n", "text/plain")
                return
            try:
                snapshot = dict(self.introspect_fn())
            except Exception as exc:  # noqa: BLE001 - observer endpoint
                body = json.dumps(
                    {"error": f"{type(exc).__name__}: {exc}"}
                ).encode()
                self._reply(500, body, "application/json")
                return
            body = json.dumps(snapshot, default=str).encode()
            self._reply(200, body, "application/json")
        else:
            self._reply(404, b"not found\n", "text/plain")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: Any) -> None:  # noqa: D102 - silence stderr
        pass


class MetricsServer:
    """Background ``/metrics`` + ``/healthz`` endpoint over a snapshot fn.

    Parameters
    ----------
    snapshot_fn:
        Zero-argument callable returning the metrics snapshot dict —
        typically ``recorder.metrics.snapshot`` of the live recorder, so
        every scrape sees current values.
    host / port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`address` for the actual one).
    prefix:
        Metric name prefix (default ``repro_``).
    health_fn:
        Optional zero-argument callable returning the ``/healthz`` JSON
        body — the SLO monitor reports ``{"status": "degraded",
        "breached": [...]}`` here while objectives burn too hot. When
        omitted the endpoint answers a static ``{"status": "ok"}``.
    introspect_fn:
        Optional zero-argument callable returning the live-state
        snapshot served as JSON on ``/introspect`` — typically
        :meth:`repro.telemetry.inspect.RuntimeInspector.snapshot`. When
        omitted the endpoint answers 404.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Mapping[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
        health_fn: Callable[[], Mapping[str, Any]] | None = None,
        introspect_fn: Callable[[], Mapping[str, Any]] | None = None,
    ) -> None:
        handler = type(
            "_BoundHandler", (_Handler,),
            {"snapshot_fn": staticmethod(snapshot_fn), "prefix": prefix,
             "health_fn": staticmethod(health_fn) if health_fn else None,
             "introspect_fn":
                 staticmethod(introspect_fn) if introspect_fn else None},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
