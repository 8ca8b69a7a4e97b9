"""Counters, gauges and histograms for the offload path.

The metric types are deliberately tiny: a :class:`Counter` is a locked
integer, a :class:`Gauge` a locked float, and a :class:`LogHistogram`
an HDR-style fixed-bucket latency histogram whose geometric bucket
bounds give a bounded relative quantile error at O(1) memory — the shape
behind the phase and per-kernel percentiles. A :class:`MetricsRegistry`
creates them on first use (``registry.counter("offload.issued").inc()``)
and produces a single JSON-friendly :meth:`~MetricsRegistry.snapshot`;
it is the only aggregate store, and the recorder's refuses a name
:mod:`repro.telemetry.signals` does not declare.

All operations are thread-safe; the registry lock only guards additions
to the name table (a hit never takes it), each instrument carries its own
lock so hot counters do not serialize against each other.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.signals import SignalRegistry

__all__ = [
    "Counter",
    "Gauge",
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
    *every* completed offload fold into its kernel's
    series without touching the span ring. It never forgets: counts are
    lifetime cumulative.
    Percentiles interpolate within the winning bucket and clamp to the
    observed min/max, so small-count queries stay sane.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "count", "total", "_min",
                 "_max")

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
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

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.fold(value)

    def fold(self, value: float) -> None:
        """:meth:`observe` of a ``float`` by a caller that holds the
        histogram's lock (the recorder's share the lock of its ring)."""
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            state = list(self._counts), self.count, self._min, self._max
        return self._interpolate(q, *state)

    def _interpolate(self, q: float, counts: list[int], count: int,
                     lo_seen: float, hi_seen: float) -> float:
        """The ``q``-th percentile of one copy of the histogram's state."""
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
        """Lifetime count, mean, min, max and p50/p95/p99, all read from
        one copy of the state: a concurrent fold cannot tear them apart."""
        with self._lock:
            state = list(self._counts), self.count, self._min, self._max
            total = self.total
        _, count, lo, hi = state
        if count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": count,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": self._interpolate(50, *state),
            "p95": self._interpolate(95, *state),
            "p99": self._interpolate(99, *state),
        }


class MetricsRegistry:
    """Name -> instrument table with get-or-create accessors. With
    ``signals`` (the recorder's has them) a name must be declared there,
    under the kind asked for, to be *created*; a hit is never checked."""

    def __init__(self, signals: "SignalRegistry | None" = None) -> None:
        self._lock = threading.Lock()
        self._signals = signals
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LogHistogram] = {}

    def _create(self, table: dict[str, Any], name: str, kind: str,
                factory: Callable[[], Any]) -> Any:
        """The miss path: check the declaration, then mint exactly one
        instrument per name however many threads ask at once."""
        if self._signals is not None:
            self._signals.check(name, kind)
        with self._lock:
            return table.setdefault(name, factory())

    # A hit reads the name table without the lock (one dict read is
    # atomic); only creation takes it.
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._create(self._counters, name, "counter", Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._create(self._gauges, name, "gauge", Gauge)
        return instrument

    def log_histogram(
        self, name: str, bounds: Sequence[float] | None = None,
    ) -> LogHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._create(
                self._histograms, name, "histogram",
                lambda: LogHistogram(bounds))
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
