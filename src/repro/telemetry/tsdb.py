"""Bounded in-process time-series store over the metrics registry.

The recorder's metrics are *instantaneous*: a scrape sees the current
counter values and gauge levels, but nothing retains history — "what was
the shm ring fill 30 s ago", "how fast are offloads completing", "which
target started straggling a minute into the soak" are unanswerable. This
module adds the missing axis of time at a fixed, tiny cost:

* :class:`SeriesRing` — one bounded series: a float64 value ring plus a
  parallel timestamp ring (``array('d')``), overwritten in place once
  retention is reached. No allocation per sample after warmup.
* :class:`TimeSeriesStore` — name -> ring table fed by snapshotting the
  live :class:`~repro.telemetry.metrics.MetricsRegistry` on a fixed
  interval (default 1 s), with PromQL-flavoured queries:
  :meth:`~TimeSeriesStore.range`, :meth:`~TimeSeriesStore.rate`
  (counter-reset aware), :meth:`~TimeSeriesStore.delta`.
* :class:`Scoreboard` — per-target health/load vectors (in-flight
  depth, reply p95, error rate, ring fill / send-queue bytes) derived
  from the fan-out backend's per-member stats, written as
  ``target.*.<node>`` series following the existing dotted-suffix gauge
  convention.
* :class:`AnomalyDetector` — rolling median/MAD scoring over scoreboard
  series: emits ``telemetry.anomaly`` events (both rings; entering is
  bundle trigger-eligible), exposes ``anomaly.score.*`` gauges and
  advises the hedger away from anomalous targets.
* :class:`Tsdb` — the assembled sampler: a daemon thread that ticks the
  snapshot + scoreboard + detector; ~zero cost when not installed (the
  recorder's ``tsdb`` attribute stays ``None`` and no thread exists).

Everything here is stdlib-only and safe to query from any thread; one
store-level lock serialises the 1 Hz writer against readers.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from typing import Any, Callable, Iterable, Mapping

from repro.telemetry.metrics import MetricsRegistry, percentile

__all__ = [
    "AnomalyDetector",
    "Scoreboard",
    "SeriesRing",
    "TimeSeriesStore",
    "Tsdb",
    "install_tsdb",
]

#: Default samples retained per series (600 at 1 s = 10 minutes).
DEFAULT_RETENTION = 600

#: Default cap on distinct series; protects against cardinality leaks
#: (e.g. an unbounded label) eating the heap one ring at a time.
DEFAULT_MAX_SERIES = 2048


class SeriesRing:
    """One bounded time series: parallel float64 value + timestamp rings.

    Samples are appended at a cursor that wraps; :meth:`items` returns
    them oldest-first regardless of wrap state. Not internally locked —
    the owning :class:`TimeSeriesStore` serialises access.
    """

    __slots__ = ("_ts", "_values", "_capacity", "_cursor", "_count")

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"series retention must be >= 2, got {capacity}")
        self._capacity = capacity
        self._ts = array("d", bytes(8 * capacity))
        self._values = array("d", bytes(8 * capacity))
        self._cursor = 0
        self._count = 0

    def append(self, ts: float, value: float) -> None:
        self._ts[self._cursor] = ts
        self._values[self._cursor] = value
        self._cursor = (self._cursor + 1) % self._capacity
        if self._count < self._capacity:
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def last(self) -> tuple[float, float] | None:
        """Most recent ``(ts, value)``, or ``None`` when empty."""
        if self._count == 0:
            return None
        idx = (self._cursor - 1) % self._capacity
        return (self._ts[idx], self._values[idx])

    def items(self, since: float | None = None) -> list[tuple[float, float]]:
        """Samples oldest-first, optionally only those with ``ts >= since``."""
        if self._count == 0:
            return []
        start = (self._cursor - self._count) % self._capacity
        out: list[tuple[float, float]] = []
        for i in range(self._count):
            idx = (start + i) % self._capacity
            ts = self._ts[idx]
            if since is None or ts >= since:
                out.append((ts, self._values[idx]))
        return out


class TimeSeriesStore:
    """Bounded name -> :class:`SeriesRing` table with range queries.

    Parameters
    ----------
    retention:
        Samples kept per series (ring capacity).
    max_series:
        Hard cap on distinct series; further names are dropped and
        counted in :attr:`dropped_series` rather than allocated.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION,
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.retention = retention
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[str, SeriesRing] = {}
        #: Samples refused because the series cap was hit.
        self.dropped_series = 0

    # -- writing -----------------------------------------------------------
    def record(self, name: str, value: float, ts: float) -> None:
        """Append one sample to ``name``'s ring (creating it on first use)."""
        with self._lock:
            ring = self._series.get(name)
            if ring is None:
                if len(self._series) >= self.max_series:
                    self.dropped_series += 1
                    return
                ring = self._series[name] = SeriesRing(self.retention)
            ring.append(ts, float(value))

    def observe_snapshot(self, snapshot: Mapping[str, Any], ts: float) -> None:
        """Fold one registry snapshot into the rings.

        Counters are stored raw (cumulative — :meth:`rate` derives the
        per-second view), gauges as-is; every histogram contributes its
        lifetime ``.count`` (cumulative, rate-able) and its ``.p95`` as
        two derived series. The ``.p95`` is the histogram's lifetime
        percentile too, not a window's: it moves less with every sample
        the histogram has already seen.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.record(name, value, ts)
        for name, value in snapshot.get("gauges", {}).items():
            self.record(name, value, ts)
        for name, summary in snapshot.get("histograms", {}).items():
            self.record(name + ".count", summary.get("count", 0), ts)
            self.record(name + ".p95", summary.get("p95", 0.0), ts)

    # -- queries -----------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def latest(self, name: str) -> float | None:
        """Most recent value of ``name``, or ``None``."""
        with self._lock:
            ring = self._series.get(name)
            last = ring.last() if ring is not None else None
        return last[1] if last is not None else None

    def range(self, name: str, window: float | None = None,
              now: float | None = None) -> list[tuple[float, float]]:
        """``(ts, value)`` samples of the last ``window`` seconds.

        ``window=None`` returns the whole retained ring. ``now`` anchors
        the window end (defaults to the newest sample's timestamp, so a
        stopped sampler still answers over its final window); an
        explicit ``now`` bounds both ends — ``(now - window, now]`` —
        so queries can look *back into* history, not just at its tail.
        """
        with self._lock:
            ring = self._series.get(name)
            if ring is None:
                return []
            if window is None:
                return ring.items()
            last = ring.last()
            if last is None:
                return []
            anchor = last[0] if now is None else now
            points = ring.items(since=anchor - window)
        if now is not None:
            points = [p for p in points if p[0] <= now]
        return points

    def delta(self, name: str, window: float | None = None,
              now: float | None = None) -> float:
        """Last-minus-first value over the window (0.0 when < 2 samples)."""
        points = self.range(name, window, now)
        if len(points) < 2:
            return 0.0
        return points[-1][1] - points[0][1]

    def rate(self, name: str, window: float | None = None,
             now: float | None = None) -> float:
        """Per-second increase of a cumulative series over the window.

        Counter-reset aware: a sample *lower* than its predecessor means
        the process (or instrument) restarted — the post-reset value is
        counted as an increase from zero instead of a huge negative
        step, matching PromQL's ``rate()`` semantics. Returns 0.0 when
        fewer than two samples span the window.
        """
        points = self.range(name, window, now)
        if len(points) < 2:
            return 0.0
        increase = 0.0
        prev = points[0][1]
        for _, value in points[1:]:
            if value >= prev:
                increase += value - prev
            else:  # counter reset: the new value accrued from zero
                increase += value
            prev = value
        span = points[-1][0] - points[0][0]
        if span <= 0.0:
            return 0.0
        return increase / span

    # -- persistence -------------------------------------------------------
    def to_json(self, window: float | None = None,
                now: float | None = None) -> dict[str, Any]:
        """JSON-friendly dump: ``{name: {"t": [...], "v": [...]}}``.

        The shape crash bundles persist as ``timeseries.json``;
        timestamps are absolute (``time.time`` epoch seconds).
        """
        out: dict[str, Any] = {}
        for name in self.names():
            points = self.range(name, window, now)
            if not points:
                continue
            out[name] = {"t": [round(t, 6) for t, _ in points],
                         "v": [v for _, v in points]}
        return out

    def clear(self) -> None:
        with self._lock:
            self._series.clear()


def _transport_stats(stats: Mapping[str, Any]) -> Mapping[str, Any]:
    """A proxy's (fault injection) stats nest its transport's."""
    while isinstance(stats.get("inner"), dict):
        stats = stats["inner"]
    return stats


#: A load vector's keys (series name segments) and the transport
#: ``stats()`` key each one reads.
_LOAD_KEYS = (("in_flight", "pending_replies"), ("queue_bytes", "send_queue_bytes"))


def _target_vectors(stats: Mapping[str, Any]) -> dict[int, dict[str, Any]]:
    """Project a backend's ``stats()`` onto one load vector per target.

    A fan-out's members are its ``inner`` list, numbered from 1; any
    other backend has one target, node 1. Transports disagree on key
    names, so each member's stats map onto :data:`_LOAD_KEYS` plus the
    shm ring's ``ring_fill``. An absent signal stays absent rather than
    reading as zero, and a member with none gets no vector.
    """
    stats = _transport_stats(stats)
    members = stats.get("inner")
    table: dict[int, dict[str, Any]] = {}
    for node, member in enumerate(
        members if isinstance(members, list) else [stats], 1
    ):
        member = _transport_stats(member)
        vector = {key: member[name] for key, name in _LOAD_KEYS
                  if member.get(name) is not None}
        used, capacity = member.get("request_ring_used"), member.get("ring_capacity")
        if used is not None and capacity:
            vector["ring_fill"] = used / capacity
        if vector:
            table[node] = vector
    return table


class Scoreboard:
    """Per-target health/load vectors derived from live runtime state.

    Each refresh reads the backend's ``stats()`` (the fan-out backend
    reports one entry per member; single-target backends report node
    1) and writes ``target.*.<node>`` series into the store:

    ========================== ========================================
    ``target.in_flight.<n>``   replies pending on the wire to target n
    ``target.queue_bytes.<n>`` send-queue backlog / ring fill bytes
    ``target.ring_fill.<n>``   shm request-ring occupancy (0..1)
    ``target.error_rate.<n>``  failed offloads per second (rate of the
                               ``target.errors.<n>`` counter)
    ========================== ========================================

    Reply-latency p95 per target rides for free: the completion hook
    feeds ``target.reply.<n>`` log histograms, which the sampler already
    derives into ``target.reply.<n>.p95`` series.
    """

    #: Window over which the error rate is computed, seconds.
    ERROR_WINDOW = 30.0

    def __init__(self, store: TimeSeriesStore) -> None:
        self.store = store
        self._runtime: Any = None

    def attach_runtime(self, runtime: Any) -> None:
        self._runtime = runtime

    def detach_runtime(self) -> None:
        self._runtime = None

    def refresh(self, now: float) -> None:
        """Sample per-target state into the store (one tick)."""
        runtime = self._runtime
        if runtime is None:
            return
        try:
            vectors = _target_vectors(runtime.backend.stats())
        except Exception:  # noqa: BLE001 - observer must not throw
            vectors = {}
        for node, vector in vectors.items():
            for key, value in vector.items():
                self.store.record(f"target.{key}.{node}", float(value), now)
            self.store.record(
                f"target.error_rate.{node}",
                self.store.rate(f"target.errors.{node}", self.ERROR_WINDOW,
                                now=now),
                now,
            )


#: Floors of the anomaly score's scale, relative to the median and
#: absolute: they keep near-constant series from flagging on noise.
_REL_FLOOR = 0.05
_ABS_FLOOR = 1e-9
#: Cumulative series the level-shift detector never scores.
_EXCLUDE_SUFFIXES = (".count",)
_EXCLUDE_PREFIXES = ("target.errors.",)


class AnomalyDetector:
    """Rolling median/MAD outlier scoring over store series.

    Every evaluation scores each watched series' newest sample against
    the median of its trailing window: ``score = |x - median| / scale``
    with ``scale = max(1.4826 * MAD, 0.05 * |median|, 1e-9)``
    (the floors keep near-constant series from flagging on noise).
    Series whose baseline is identically zero (``MAD == 0`` and
    ``median == 0`` — an idle target's ``in_flight``/``error_rate``)
    are *not* scored: a zero history carries no scale information, and
    any floor small enough to keep latency series sensitive would make
    the first sample after an idle period score astronomically and flap
    a healthy target. Cumulative series (``*.count``,
    ``target.errors.*``) are excluded outright: a monotone counter
    level like ``target.reply.N.count`` always drifts off its trailing
    median under normal traffic — consumers who want them watched
    should score their ``rate()`` instead (the scoreboard already
    derives ``target.error_rate.<n>`` for exactly this reason).

    A score at or above ``threshold`` on ``enter_ticks`` *consecutive*
    evaluations marks the series anomalous (a single-tick blip never
    enters); it recovers once the score falls below ``threshold / 2``
    (hysteresis, so a value oscillating around the trip point does not
    flap events).

    On each transition the detector emits a ``telemetry.anomaly`` /
    ``telemetry.anomaly_recovered`` event through ``emit`` (the
    recorder's ``force_event``: both rings, no trace id) and
    — entering only — fires a trigger-eligible crash bundle
    (``telemetry_anomaly``), armed or not being the flight recorder's
    decision. ``anomaly.score.<series>`` gauges expose the live scores
    for scraping.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        metrics: MetricsRegistry | None = None,
        *,
        prefixes: Iterable[str] = ("target.",),
        window: float = 60.0,
        min_samples: int = 8,
        threshold: float = 5.0,
        enter_ticks: int = 2,
        emit: Callable[..., None] | None = None,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.prefixes = tuple(prefixes)
        self.window = window
        self.min_samples = max(3, min_samples)
        self.threshold = threshold
        self.enter_ticks = max(1, enter_ticks)
        self._emit = emit
        self._lock = threading.Lock()
        self._active: dict[str, dict[str, Any]] = {}
        #: name -> consecutive evaluations at/above threshold (pre-entry).
        self._pending: dict[str, int] = {}

    def watches(self, name: str) -> bool:
        """Whether ``name`` is scored: prefix-matched and not excluded.

        Cumulative series (histogram ``.count`` derivatives, raw error
        counters) are excluded — the level-shift detector would flag
        their normal monotone growth; their rates are scored instead.
        """
        if not name.startswith(self.prefixes):
            return False
        if name.endswith(_EXCLUDE_SUFFIXES):
            return False
        return not name.startswith(_EXCLUDE_PREFIXES)

    # -- scoring -----------------------------------------------------------
    def score(self, name: str, now: float | None = None) -> float | None:
        """Current median/MAD score of ``name`` (None when too few samples)."""
        points = self.store.range(name, self.window, now)
        if len(points) < self.min_samples:
            return None
        values = [v for _, v in points]
        latest = values[-1]
        baseline = values[:-1]
        med = percentile(baseline, 50)
        mad = percentile([abs(v - med) for v in baseline], 50)
        if mad == 0.0 and med == 0.0:
            # Identically-zero baseline (idle target): no scale
            # information — any finite floor either deadens latency
            # series or makes the first post-idle sample score ~1e9.
            return None
        scale = max(1.4826 * mad, _REL_FLOOR * abs(med), _ABS_FLOOR)
        return abs(latest - med) / scale

    def evaluate(self, now: float) -> list[dict[str, Any]]:
        """Score every watched series; emit transitions. Returns entries."""
        entered: list[dict[str, Any]] = []
        for name in self.store.names():
            if not self.watches(name):
                continue
            value = self.score(name, now)
            if value is None or not math.isfinite(value):
                continue
            if self.metrics is not None:
                self.metrics.gauge(f"anomaly.score.{name}").set(value)
            with self._lock:
                active = name in self._active
                if value >= self.threshold and not active:
                    # Entry requires the deviation to persist for
                    # enter_ticks consecutive evaluations — a one-tick
                    # blip (GC pause, scheduler hiccup) never enters.
                    streak = self._pending.get(name, 0) + 1
                    if streak < self.enter_ticks:
                        self._pending[name] = streak
                        continue
                    self._pending.pop(name, None)
                    entry = {"series": name, "score": round(value, 3),
                             "since": now,
                             "latest": self.store.latest(name)}
                    self._active[name] = entry
                    entered.append(entry)
                elif value < self.threshold:
                    self._pending.pop(name, None)
                    if active and value < self.threshold / 2.0:
                        entry = self._active.pop(name)
                        self._transition("telemetry.anomaly_recovered",
                                         name, value, entry, now)
        for entry in entered:
            self._transition("telemetry.anomaly", entry["series"],
                             entry["score"], entry, now, trigger=True)
        return entered

    def _transition(self, event: str, name: str, score: float,
                    entry: Mapping[str, Any], now: float, *,
                    trigger: bool = False) -> None:
        fields = {"series": name, "score": round(float(score), 3),
                  "since": entry.get("since", now)}
        if self._emit is not None:
            self._emit(event, category="telemetry", **fields)
        if trigger:
            from repro.telemetry import flightrecorder

            # Entering an anomaly is trigger-eligible: dumps a bundle
            # when a crash dir is armed, a silent no-op otherwise (and
            # debounced either way). Recovery is the event alone.
            flightrecorder.trigger("telemetry_anomaly", **fields)

    # -- consumers ---------------------------------------------------------
    def anomalies(self) -> list[dict[str, Any]]:
        """Currently anomalous series, oldest first."""
        with self._lock:
            return sorted(self._active.values(), key=lambda e: e["since"])

    def anomalous_nodes(self) -> set[int]:
        """Target ids implicated by active ``target.*`` anomalies.

        The hedger consults this as *advisory* input: prefer a hedge
        destination that is not currently anomalous.
        """
        nodes: set[int] = set()
        with self._lock:
            names = list(self._active)
        for name in names:
            if not name.startswith("target."):
                continue
            for part in reversed(name.split(".")):
                try:
                    nodes.add(int(part))
                    break
                except ValueError:
                    continue
        return nodes

    def clear(self) -> None:
        with self._lock:
            self._active.clear()
            self._pending.clear()


class Tsdb:
    """The assembled sampler: store + scoreboard + detector + thread.

    Installed on the recorder as ``recorder.tsdb`` by
    :func:`install_tsdb`; everything else in the codebase discovers it
    there, so the cost is one attribute read when the store is off.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        retention: int = DEFAULT_RETENTION,
        max_series: int = DEFAULT_MAX_SERIES,
        emit: Callable[..., None] | None = None,
    ) -> None:
        if interval <= 0.0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.registry = registry
        self.interval = interval
        self.store = TimeSeriesStore(retention=retention, max_series=max_series)
        self.scoreboard = Scoreboard(self.store)
        self.detector = AnomalyDetector(self.store, registry, emit=emit)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Ticks taken so far (tests and introspection).
        self.samples = 0

    # -- lifecycle ---------------------------------------------------------
    def attach_runtime(self, runtime: Any) -> None:
        self.scoreboard.attach_runtime(runtime)

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-tsdb-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.scoreboard.detach_runtime()
        # A stopped sampler can never observe recovery: leaving active
        # anomalies behind would demote those targets forever in any
        # consumer (hedger, /healthz) that outlives this runtime.
        self.detector.clear()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - the sampler must survive
                pass

    def sample_once(self, now: float | None = None) -> None:
        """One sampler tick: registry snapshot -> scoreboard -> detector."""
        ts = time.time() if now is None else now
        self.store.observe_snapshot(self.registry.snapshot(), ts)
        self.scoreboard.refresh(ts)
        self.detector.evaluate(ts)
        self.samples += 1


def install_tsdb(recorder: Any) -> Tsdb:
    """Build a :class:`Tsdb` over ``recorder`` and attach it.

    Does not start the sampler thread — the caller starts it once the
    runtime exists (so the scoreboard has per-target stats to read).
    """
    tsdb = recorder.tsdb = Tsdb(recorder.metrics, emit=recorder.force_event)
    return tsdb
