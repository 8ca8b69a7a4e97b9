"""Counters, gauges and histograms for the offload path.

The metric types are deliberately tiny: a :class:`Counter` is a locked
integer, a :class:`Gauge` a locked float, a :class:`Histogram` a ring of
recent observations with percentile queries, and a :class:`LogHistogram`
an HDR-style fixed-bucket latency histogram whose geometric bucket
bounds give a bounded relative quantile error at O(1) memory — the shape
behind the Prometheus ``_bucket`` series and the continuous-profiling
percentiles. A :class:`MetricsRegistry` creates them on first use
(``registry.counter("offload.issued").inc()``) and produces a single
JSON-friendly :meth:`~MetricsRegistry.snapshot`.

All operations are thread-safe; the registry lock only guards additions
to the name table (a hit never takes it), each instrument carries its own
lock so hot counters do not serialize against each other.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from typing import Any, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "percentile",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default behavior without requiring the
    samples to be a numpy array.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, live buffers, ...)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Ring of recent observations with percentile queries.

    Keeps the last ``maxlen`` samples (enough for p50/p95/p99 of a run)
    plus exact lifetime ``count``/``total`` so means stay correct even
    after the ring wraps.
    """

    __slots__ = ("_lock", "_samples", "count", "total")

    def __init__(self, maxlen: int = 4096) -> None:
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))
            self.count += 1
            self.total += value

    def percentile(self, q: float) -> float:
        with self._lock:
            return percentile(list(self._samples), q)

    def summary(self) -> dict[str, float]:
        """Count, mean, min/max and p50/p95 of the retained window."""
        with self._lock:
            samples = list(self._samples)
            count, total = self.count, self.total
        if not samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0}
        return {
            "count": count,
            "mean": total / count,
            "min": min(samples),
            "max": max(samples),
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
        }


def default_latency_bounds() -> tuple[float, ...]:
    """Geometric bucket upper bounds for latencies, in seconds.

    1 µs doubling up to ~134 s (28 buckets) — wide enough to span the
    paper's 6.1 µs VE-side dispatch and a multi-second chaos stall with
    <= 2x relative error per bucket. Values above the last bound land in
    the implicit +Inf bucket.
    """
    return tuple(1e-6 * 2.0**i for i in range(28))


class LogHistogram:
    """HDR-style histogram over fixed geometric buckets.

    ``observe`` is O(log buckets) and allocation-free, which is what lets
    the continuous profiler fold *every* completed offload — sampled or
    not — without touching the span ring. Unlike :class:`Histogram` it
    never forgets: counts are lifetime cumulative, so the summary's
    ``buckets`` list renders directly as a Prometheus ``_bucket`` series.
    Percentiles interpolate within the winning bucket and clamp to the
    observed min/max, so small-count queries stay sane.

    With ``exemplars=True`` each bucket additionally retains the most
    recent ``(trace_id, value)`` observed into it — the OpenMetrics
    exemplar shape — so a fat latency bucket links straight to one
    concrete trace that landed there. Off by default: the retention is
    one tuple store per observation, but most histograms have no trace
    to link.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "count", "total", "_min",
                 "_max", "_exemplars")

    def __init__(self, bounds: Sequence[float] | None = None, *,
                 exemplars: bool = False) -> None:
        self._bounds = tuple(bounds) if bounds is not None \
            else default_latency_bounds()
        if list(self._bounds) != sorted(set(self._bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        if self._bounds and self._bounds[0] <= 0.0:
            raise ValueError("bucket bounds must be positive")
        self._lock = threading.Lock()
        # one extra slot: the +Inf overflow bucket
        self._counts = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._exemplars: list[tuple[str, float] | None] | None = (
            [None] * (len(self._bounds) + 1) if exemplars else None
        )

    def enable_exemplars(self) -> None:
        """Start retaining per-bucket exemplars (idempotent)."""
        with self._lock:
            if self._exemplars is None:
                self._exemplars = [None] * (len(self._bounds) + 1)

    def observe(self, value: float, trace_id: str | None = None) -> None:
        value = float(value)
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if trace_id and self._exemplars is not None:
                self._exemplars[idx] = (trace_id, value)

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            count = self.count
            lo_seen, hi_seen = self._min, self._max
        if count == 0:
            return 0.0
        rank = (q / 100.0) * count
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lower = self._bounds[idx - 1] if idx > 0 else 0.0
                upper = self._bounds[idx] if idx < len(self._bounds) else hi_seen
                frac = 1.0 - (cumulative - rank) / bucket_count
                value = lower + (upper - lower) * frac
                return float(min(max(value, lo_seen), hi_seen))
        return float(hi_seen)

    def summary(self) -> dict[str, Any]:
        """Lifetime stats plus cumulative ``buckets`` for exposition.

        ``buckets`` is an ordered list of ``[le, cumulative_count]``
        pairs ending with ``["+Inf", count]`` — exactly the shape
        :func:`repro.telemetry.promexport.to_prometheus` turns into a
        ``# TYPE ... histogram`` series. When exemplar retention is on,
        an ``exemplars`` list of ``[le, trace_id, value]`` rides along
        for the buckets that have one.
        """
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.total
            lo, hi = self._min, self._max
            retained = list(self._exemplars) if self._exemplars is not None \
                else None
        if count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "buckets": []}
        buckets: list[list[Any]] = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, counts):
            cumulative += bucket_count
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", count])
        summary: dict[str, Any] = {
            "count": count,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": buckets,
        }
        if retained is not None:
            bounds: list[Any] = list(self._bounds) + ["+Inf"]
            summary["exemplars"] = [
                [bounds[idx], trace_id, value]
                for idx, slot in enumerate(retained)
                if slot is not None
                for trace_id, value in (slot,)
            ]
        return summary


class MetricsRegistry:
    """Name -> instrument table with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram | LogHistogram] = {}

    # A hit reads the name table without the lock (one dict read is
    # atomic); only creation, which must not mint two instruments for
    # one name, takes it.
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter())
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge())
        return instrument

    def histogram(self, name: str, maxlen: int = 4096) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(maxlen))
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{name!r} is registered as a log histogram")
        return instrument

    def log_histogram(
        self, name: str, bounds: Sequence[float] | None = None,
        *, exemplars: bool = False,
    ) -> LogHistogram:
        """Get-or-create a bucketed histogram sharing the name table.

        Log and ring histograms share a namespace so ``snapshot()`` stays
        a single ``histograms`` section; asking for the same name with
        the other accessor is a programming error and raises.
        ``exemplars=True`` turns per-bucket exemplar retention on for
        the instrument, whether it is being created or already exists.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, LogHistogram(bounds, exemplars=exemplars))
        if not isinstance(instrument, LogHistogram):
            raise TypeError(f"{name!r} is registered as a ring histogram")
        if exemplars:
            instrument.enable_exemplars()
        return instrument

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one JSON-friendly dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(histograms.items())
            },
        }

    def clear(self) -> None:
        """Drop every instrument (tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
