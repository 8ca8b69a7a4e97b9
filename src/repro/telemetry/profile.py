"""Continuous per-kernel profiling for the offload path.

Sampling (:mod:`repro.telemetry.sampling`) decides which traces keep
their *spans*; this module is the other half of the bargain: every
completed offload — sampled or not — folds into a per-kernel rolling
profile so aggregate latency attribution never has sampling error. A
profile is a handful of counters plus one :class:`~repro.telemetry.
metrics.LogHistogram` per phase, so folding costs a dict lookup and an
O(log buckets) observe — cheap enough for the unsampled fast path.

The aggregates surface in three places:

* the metrics snapshot (``KernelProfiler.snapshot()``), merged into
  ``/metrics`` as ``kernel.<name>.<phase>`` histogram series;
* ``python -m repro.telemetry.report --profile``, which ranks kernels
  by total and tail time;
* the SLO monitor, which reads the same completion stream.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from .metrics import LogHistogram

__all__ = ["KernelProfile", "KernelProfiler", "render_profile_table"]

#: Phase used for the whole issue->result round trip.
TOTAL_PHASE = "offload"


class KernelProfile:
    """Rolling aggregate for one kernel (functor type name)."""

    __slots__ = ("name", "_lock", "count", "errors", "bytes", "_phases")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.errors = 0
        self.bytes = 0
        self._phases: dict[str, LogHistogram] = {}

    def _phase(self, phase: str) -> LogHistogram:
        hist = self._phases.get(phase)
        if hist is None:  # only creation takes the lock, as in the registry
            with self._lock:
                hist = self._phases.setdefault(phase, LogHistogram())
        return hist

    def record(self, duration_ns: int, *, error: bool = False) -> None:
        """Fold one completed offload's total round-trip time."""
        with self._lock:
            self.count += 1
            if error:
                self.errors += 1
        self._phase(TOTAL_PHASE).observe(duration_ns / 1e9)

    def record_phase(self, phase: str, duration_ns: int) -> None:
        """Fold one span's duration under ``phase`` (e.g. ``execute``)."""
        self._phase(phase).observe(duration_ns / 1e9)

    def add_bytes(self, nbytes: int) -> None:
        with self._lock:
            self.bytes += int(nbytes)

    def phases(self) -> dict[str, LogHistogram]:
        with self._lock:
            return dict(self._phases)

    def summary(self) -> dict[str, Any]:
        with self._lock:
            phases = dict(self._phases)
            count, errors, nbytes = self.count, self.errors, self.bytes
        return {
            "kernel": self.name,
            "count": count,
            "errors": errors,
            "bytes": nbytes,
            "phases": {phase: h.summary() for phase, h in sorted(phases.items())},
        }


class KernelProfiler:
    """Name -> :class:`KernelProfile` table with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: dict[str, KernelProfile] = {}

    def profile(self, kernel: str) -> KernelProfile:
        prof = self._profiles.get(kernel)
        if prof is None:
            with self._lock:
                prof = self._profiles.setdefault(kernel, KernelProfile(kernel))
        return prof

    def record(self, kernel: str, duration_ns: int, *,
               error: bool = False) -> None:
        self.profile(kernel).record(duration_ns, error=error)

    def record_phase(self, kernel: str, phase: str, duration_ns: int) -> None:
        self.profile(kernel).record_phase(phase, duration_ns)

    def add_bytes(self, kernel: str, nbytes: int) -> None:
        self.profile(kernel).add_bytes(nbytes)

    def profiles(self) -> dict[str, KernelProfile]:
        with self._lock:
            return dict(self._profiles)

    def snapshot(self) -> dict[str, Any]:
        """All kernels as ``{kernel: summary}`` (JSON-friendly)."""
        return {name: p.summary()
                for name, p in sorted(self.profiles().items())}

    def metric_series(self) -> dict[str, Any]:
        """Profiles as histogram-snapshot entries for ``/metrics``.

        Returns ``{"kernel.<name>.<phase>": summary}`` dicts in the same
        shape as ``MetricsRegistry.snapshot()["histograms"]`` values so
        the Prometheus exporter renders them as real ``_bucket`` series.
        """
        series: dict[str, Any] = {}
        for name, prof in sorted(self.profiles().items()):
            for phase, hist in sorted(prof.phases().items()):
                series[f"kernel.{name}.{phase}"] = hist.summary()
        return series

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()


def render_profile_table(
    snapshot: Mapping[str, Mapping[str, Any]],
    *,
    sort_by: str = "total",
    limit: int | None = None,
) -> str:
    """Rank kernels by total or tail time for ``report.py --profile``.

    ``snapshot`` is :meth:`KernelProfiler.snapshot` output (or the same
    shape reconstructed from JSON). Sorting is by cumulative wall time
    in the ``offload`` phase (``sort_by="total"``) or by its p99
    (``sort_by="tail"``). Summaries carrying an ``exemplar`` (the
    slowest offload's trace id, attached by the offline reconstruction
    in :mod:`repro.telemetry.report`) grow an extra column linking each
    row to one concrete trace.
    """
    if sort_by not in ("total", "tail"):
        raise ValueError(f"sort_by must be 'total' or 'tail', got {sort_by!r}")

    def _key(item: tuple[str, Mapping[str, Any]]) -> float:
        summary = item[1].get("phases", {}).get(TOTAL_PHASE, {})
        if sort_by == "tail":
            return float(summary.get("p99", 0.0))
        return float(summary.get("mean", 0.0)) * float(summary.get("count", 0))

    with_exemplars = any(
        isinstance(summary.get("exemplar"), Mapping)
        for summary in snapshot.values()
    )
    rows: list[dict[str, str]] = []
    ranked: Iterable[tuple[str, Mapping[str, Any]]] = sorted(
        snapshot.items(), key=_key, reverse=True
    )
    for name, summary in ranked:
        total = summary.get("phases", {}).get(TOTAL_PHASE, {})
        count = int(summary.get("count", 0))
        mean = float(total.get("mean", 0.0))
        row = {
            "kernel": name,
            "count": str(count),
            "errors": str(int(summary.get("errors", 0))),
            "bytes": f"{int(summary.get('bytes', 0)):,}",
            "total_s": f"{mean * int(total.get('count', 0)):.4f}",
            "p50_ms": f"{float(total.get('p50', 0.0)) * 1e3:.3f}",
            "p95_ms": f"{float(total.get('p95', 0.0)) * 1e3:.3f}",
            "p99_ms": f"{float(total.get('p99', 0.0)) * 1e3:.3f}",
        }
        if with_exemplars:
            exemplar = summary.get("exemplar") or {}
            trace_id = str(exemplar.get("trace_id", "") or "-")
            row["slowest_trace"] = trace_id[:16] or "-"
        rows.append(row)
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "no kernel profiles recorded"

    headers = list(rows[0])
    widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(row[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)
