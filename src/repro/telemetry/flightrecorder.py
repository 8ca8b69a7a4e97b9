"""Black-box flight recorder: always-on evidence for post-mortems.

The span recorder (:mod:`repro.telemetry.recorder`) is opt-in and
sampled — exactly wrong for the question "what was the runtime doing
just before it died?". This module keeps a second, much smaller ring
that is **always on**: every control-plane transition (window grant,
admission rejection, load shed, health flip, retry, transport error)
drops one tuple into a bounded lossy :class:`collections.deque`,
independent of whether telemetry is enabled or any trace is sampled.
Steady-state cost is one attribute check plus one deque append per
noted event — no locks, no allocation beyond the tuple.

On a *trigger* — an offload error escaping to the caller, peer-death
detection in a transport, an SLO breach, ``SIGUSR2``, or process exit
with offloads still in flight — the recorder dumps a post-mortem
bundle to the configured crash directory:

``crash-<pid>-<seq>-<reason>/``
    * ``manifest.json`` — reason, pid, wall/mono clocks, ring stats;
    * ``events.jsonl``  — the recent events, one telemetry-JSONL event
      row per line (``repro.telemetry.report`` reads it directly);
    * ``metrics.json``  — metrics snapshot (when telemetry is enabled)
      plus a ``transport`` section — reactor loop-lag stats and
      coalescer flush-reason counters from every attached runtime —
      that is captured even while the span recorder is off, so a
      post-mortem can see event-loop stalls;
    * ``timeseries.json`` — the in-process TSDB's recent history (last
      ``timeseries_window`` seconds of every series) when
      ``offload.init(telemetry={"tsdb": ...})`` installed one;
    * ``inflight.json`` — correlation ids still in flight per attached
      runtime, with window occupancy;
    * ``config.json``   — backend/policy/window configuration summary.

Dumping only happens once a crash directory is configured — via
:func:`configure`, ``offload.init(telemetry={"crash_dir": ...})`` or
the ``REPRO_CRASH_DIR`` environment variable — so importing the module
never writes to disk behind the application's back. Noting is on
regardless, so configuring a crash dir *after* an incident still
captures the events leading up to it.

Read a bundle back with :func:`load_bundle`, or render it with
``python -m repro.telemetry.report <bundle-dir>``.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import signal
import threading
import time
import weakref
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.runtime import Runtime

__all__ = [
    "BUNDLE_CONFIG",
    "BUNDLE_EVENTS",
    "BUNDLE_INFLIGHT",
    "BUNDLE_MANIFEST",
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_TIMESERIES",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "attach_runtime",
    "configure",
    "detach_runtime",
    "find_bundles",
    "get",
    "incident",
    "load_bundle",
    "note",
    "trigger",
]

#: Bundle file names (one directory per dump).
BUNDLE_MANIFEST = "manifest.json"
BUNDLE_EVENTS = "events.jsonl"
BUNDLE_METRICS = "metrics.json"
BUNDLE_INFLIGHT = "inflight.json"
BUNDLE_CONFIG = "config.json"
BUNDLE_TIMESERIES = "timeseries.json"

#: Seconds of TSDB history persisted into ``timeseries.json``.
DEFAULT_TIMESERIES_WINDOW = 300.0

#: Bump when the on-disk bundle shape changes incompatibly.
BUNDLE_SCHEMA_VERSION = 1

#: Default ring size: generous for a control-plane event stream (the
#: data plane never notes here), tiny next to the telemetry ring.
DEFAULT_CAPACITY = 2048

#: Repeated triggers within this many seconds coalesce into one bundle
#: (a dying peer fails every pending future at once; one bundle tells
#: the whole story).
DEFAULT_DEBOUNCE = 1.0


def _find_key(tree: Any, key: str) -> Any:
    """First value under ``key`` anywhere in a nested stats dict.

    Backend stats nest differently per transport (the fan-out backend
    wraps its members under ``inner``, the TCP backend keeps the
    coalescer under ``coalescer``); a depth-first search keeps the
    bundle writer agnostic to that shape.
    """
    if isinstance(tree, Mapping):
        if key in tree:
            return tree[key]
        for value in tree.values():
            found = _find_key(value, key)
            if found is not None:
                return found
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            found = _find_key(value, key)
            if found is not None:
                return found
    return None


class FlightRecorder:
    """Always-on bounded event ring with crash-bundle dumping.

    Parameters
    ----------
    capacity:
        Ring size; older events are lost (lossy by design — recency is
        the point of a flight recorder).
    crash_dir:
        Directory bundles are written under; ``None`` (and no
        ``REPRO_CRASH_DIR`` in the environment) disables dumping while
        keeping the ring recording.
    debounce:
        Minimum seconds between dumps; triggers inside the window are
        counted in the next manifest instead of producing a bundle each.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        crash_dir: "str | Path | None" = None,
        *,
        debounce: float = DEFAULT_DEBOUNCE,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = True
        if crash_dir is None:
            crash_dir = os.environ.get("REPRO_CRASH_DIR") or None
        self.crash_dir: Path | None = Path(crash_dir) if crash_dir else None
        self.debounce = debounce
        #: Seconds of TSDB history written to ``timeseries.json``.
        self.timeseries_window = DEFAULT_TIMESERIES_WINDOW
        self._ring: deque[tuple[int, str, dict[str, Any]]] = deque(
            maxlen=capacity
        )
        self._noted = 0
        self._seq = itertools.count(1)
        self._dump_lock = threading.Lock()
        self._last_dump = 0.0
        self._suppressed = 0
        self._dumps: list[Path] = []
        self._runtimes: "weakref.WeakSet[Runtime]" = weakref.WeakSet()

    # -- recording ---------------------------------------------------------
    def note(self, name: str, **attrs: Any) -> None:
        """Drop one event into the ring (the near-zero hot call)."""
        if not self.enabled:
            return
        self._ring.append((time.time_ns(), name, attrs))
        self._noted += 1

    def records(self) -> list[tuple[int, str, dict[str, Any]]]:
        """Snapshot of retained ``(ts_ns, name, attrs)``, oldest first."""
        return list(self._ring)

    @property
    def noted(self) -> int:
        """Total events ever noted (including ones lost to ring wrap)."""
        return self._noted

    @property
    def dropped(self) -> int:
        """Events lost to ring wrap-around."""
        return max(0, self._noted - len(self._ring))

    @property
    def dumps(self) -> list[Path]:
        """Bundles written so far, oldest first."""
        return list(self._dumps)

    def clear(self) -> None:
        """Drop all retained events (tests; keeps the counters)."""
        self._ring.clear()

    # -- runtime attachment ------------------------------------------------
    def attach(self, runtime: "Runtime") -> None:
        """Start including ``runtime`` in bundles (weakly referenced)."""
        self._runtimes.add(runtime)

    def detach(self, runtime: "Runtime") -> None:
        """Stop including ``runtime`` (clean shutdown is not a crash)."""
        self._runtimes.discard(runtime)

    def _inflight_snapshot(self) -> list[dict[str, Any]]:
        """Per-runtime in-flight table: the futures a crash would strand."""
        table: list[dict[str, Any]] = []
        for runtime in list(self._runtimes):
            try:
                window = runtime.window
                table.append({
                    "backend": type(runtime.backend).__name__,
                    "in_flight": window.in_flight,
                    "limit": window.limit,
                    "correlation_ids": list(window.handles()),
                })
            except Exception as exc:  # noqa: BLE001 - crash path, best effort
                table.append({"error": f"{type(exc).__name__}: {exc}"})
        return table

    def _config_snapshot(self) -> list[dict[str, Any]]:
        """Enough configuration to interpret the bundle without the code."""
        configs: list[dict[str, Any]] = []
        for runtime in list(self._runtimes):
            try:
                entry: dict[str, Any] = {
                    "backend": type(runtime.backend).__name__,
                    "window_limit": runtime.window.limit,
                    "qos": runtime.qos is not None,
                }
                policy = runtime.policy
                if policy is not None:
                    entry["policy"] = {
                        "deadline": policy.deadline,
                        "max_retries": policy.max_retries,
                        "failover": policy.failover,
                        "hedge": policy.hedge is not None,
                    }
                configs.append(entry)
            except Exception as exc:  # noqa: BLE001 - crash path, best effort
                configs.append({"error": f"{type(exc).__name__}: {exc}"})
        return configs

    def pending(self) -> int:
        """Offloads currently in flight across attached runtimes."""
        total = 0
        for runtime in list(self._runtimes):
            try:
                total += runtime.window.in_flight
            except Exception:  # noqa: BLE001 - crash path, best effort
                pass
        return total

    # -- dumping -----------------------------------------------------------
    def trigger(self, reason: str, *, force: bool = False,
                **attrs: Any) -> Path | None:
        """Note ``reason`` and dump a bundle if a crash dir is configured.

        Returns the bundle path, or ``None`` when dumping is disabled or
        the trigger was coalesced into a recent bundle's debounce
        window (``force=True`` bypasses the debounce — used by the
        operator-initiated ``SIGUSR2`` path).
        """
        self.note("flight.trigger", reason=reason, **attrs)
        if self.crash_dir is None:
            return None
        now = time.monotonic()
        with self._dump_lock:
            if not force and now - self._last_dump < self.debounce:
                self._suppressed += 1
                return None
            self._last_dump = now
            return self._dump_locked(reason, attrs)

    def dump(self, reason: str, **attrs: Any) -> Path | None:
        """Unconditionally write a bundle (no debounce); ``trigger`` is
        the usual entry point."""
        if self.crash_dir is None:
            return None
        with self._dump_lock:
            self._last_dump = time.monotonic()
            return self._dump_locked(reason, attrs)

    def _dump_locked(self, reason: str, attrs: Mapping[str, Any]) -> Path:
        assert self.crash_dir is not None
        safe_reason = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in reason
        ) or "unknown"
        bundle = (
            self.crash_dir
            / f"crash-{os.getpid()}-{next(self._seq)}-{safe_reason}"
        )
        bundle.mkdir(parents=True, exist_ok=True)
        events = self.records()
        pid = os.getpid()
        with (bundle / BUNDLE_EVENTS).open("w") as fh:
            for ts_ns, name, event_attrs in events:
                row = {
                    "type": "event",
                    "name": name,
                    "cat": "flight",
                    "ts_ns": ts_ns,
                    "span_id": 0,
                    "parent_id": 0,
                    "pid": pid,
                    "tid": 0,
                    "attrs": event_attrs,
                    "trace_id": "",
                }
                fh.write(json.dumps(row, default=str) + "\n")
        manifest = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "reason": reason,
            "attrs": {k: str(v) for k, v in attrs.items()},
            "pid": pid,
            "time_ns": time.time_ns(),
            "events": len(events),
            "noted": self._noted,
            "dropped": self.dropped,
            "suppressed_triggers": self._suppressed,
            "pending": self.pending(),
        }
        (bundle / BUNDLE_MANIFEST).write_text(
            json.dumps(manifest, indent=1, default=str)
        )
        (bundle / BUNDLE_INFLIGHT).write_text(
            json.dumps(self._inflight_snapshot(), indent=1, default=str)
        )
        (bundle / BUNDLE_CONFIG).write_text(
            json.dumps(self._config_snapshot(), indent=1, default=str)
        )
        metrics = self._metrics_snapshot()
        if metrics is not None:
            (bundle / BUNDLE_METRICS).write_text(
                json.dumps(metrics, indent=1, default=str)
            )
        series = self._timeseries_snapshot()
        if series is not None:
            (bundle / BUNDLE_TIMESERIES).write_text(
                json.dumps(series, default=str)
            )
        self._suppressed = 0
        self._dumps.append(bundle)
        return bundle

    def _metrics_snapshot(self) -> dict[str, Any] | None:
        # Imported lazily: the flight recorder must not pull the full
        # telemetry stack in at import time (it is always-on, the span
        # recorder is opt-in).
        from repro.telemetry import recorder as telemetry

        recorder = telemetry.get()
        snapshot: dict[str, Any] | None = None
        if recorder is not None:
            snapshot = recorder.metrics.snapshot()
        transport = self._transport_snapshot()
        if transport:
            if snapshot is None:
                snapshot = {}
            snapshot["transport"] = transport
        return snapshot

    def _transport_snapshot(self) -> list[dict[str, Any]]:
        """Reactor + coalescer state per attached runtime.

        Collected straight from ``backend.stats()`` — independent of the
        span recorder, so a bundle from an un-instrumented process still
        shows event-loop lag (``max_lag_us``) and why frames flushed.
        """
        entries: list[dict[str, Any]] = []
        for runtime in list(self._runtimes):
            try:
                stats = runtime.backend.stats()
            except Exception as exc:  # noqa: BLE001 - crash path, best effort
                entries.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            reactor = _find_key(stats, "reactor")
            flush_reasons = _find_key(stats, "flush_reasons")
            if reactor is None and flush_reasons is None:
                continue
            entries.append({
                "backend": type(runtime.backend).__name__,
                "reactor": reactor,
                "flush_reasons": flush_reasons,
            })
        return entries

    def _timeseries_snapshot(self) -> dict[str, Any] | None:
        from repro.telemetry import recorder as telemetry

        recorder = telemetry.get()
        tsdb = getattr(recorder, "tsdb", None) if recorder is not None else None
        if tsdb is None:
            return None
        try:
            return tsdb.store.to_json(window=self.timeseries_window)
        except Exception:  # noqa: BLE001 - crash path, best effort
            return None

    # -- process hooks -----------------------------------------------------
    def install_signal_handler(self) -> bool:
        """Dump on ``SIGUSR2`` (operator-initiated snapshot of a live,
        possibly wedged process). Returns False off the main thread,
        where signal handlers cannot be installed."""

        def _on_sigusr2(signum: int, frame: Any) -> None:
            self.trigger("sigusr2", force=True)

        try:
            signal.signal(signal.SIGUSR2, _on_sigusr2)
        except ValueError:  # not the main thread
            return False
        return True

    def _atexit_hook(self) -> None:
        pending = self.pending()
        if pending:
            self.trigger("atexit_pending", force=True, pending=pending)


# --------------------------------------------------------------------------
# Module-level singleton: always-on from import, configured lazily.
# --------------------------------------------------------------------------

_FLIGHT = FlightRecorder()
_ATEXIT_ARMED = False


def get() -> FlightRecorder:
    """The process-global flight recorder (always exists)."""
    return _FLIGHT


def note(name: str, **attrs: Any) -> None:
    """Record one control-plane event in the global ring."""
    _FLIGHT.note(name, **attrs)


def trigger(reason: str, *, force: bool = False, **attrs: Any) -> Path | None:
    """Trigger the global recorder (dumps only with a crash dir set)."""
    return _FLIGHT.trigger(reason, force=force, **attrs)


def incident(event: str, *, dump_reason: str | None = None,
             **attrs: Any) -> Path | None:
    """Record one alert-state transition in the black box.

    The shared shape behind every alerting subsystem (SLO burn-rate
    breaches, TSDB anomalies): the transition is noted under ``event``,
    and *entering* the bad state — signalled by passing ``dump_reason``
    — additionally triggers a bundle dump under that reason, so the
    evidence of why is captured while it is still in the ring.
    Recoveries pass no ``dump_reason`` and cost one ring append.
    """
    _FLIGHT.note(event, **attrs)
    if dump_reason is None:
        return None
    return _FLIGHT.trigger(dump_reason, **attrs)


def configure(
    crash_dir: "str | Path | None" = None,
    *,
    capacity: int | None = None,
    debounce: float | None = None,
    install_signal: bool = True,
) -> FlightRecorder:
    """(Re)configure the global recorder; returns it.

    Setting ``crash_dir`` arms dumping and (by default) the ``SIGUSR2``
    handler. ``capacity`` resizes the ring, preserving the most recent
    events. Idempotent and cheap; ``offload.init`` and
    ``scripts/chaos_smoke.py --crash-dir`` both land here.
    """
    if crash_dir is not None:
        _FLIGHT.crash_dir = Path(crash_dir)
    if debounce is not None:
        _FLIGHT.debounce = debounce
    if capacity is not None and capacity != _FLIGHT.capacity:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        old = _FLIGHT.records()
        _FLIGHT._ring = deque(old[-capacity:], maxlen=capacity)
        _FLIGHT.capacity = capacity
    if crash_dir is not None and install_signal:
        _FLIGHT.install_signal_handler()
    return _FLIGHT


def attach_runtime(runtime: "Runtime") -> None:
    """Include ``runtime`` in bundles and arm the atexit-with-pending
    trigger (once per process)."""
    global _ATEXIT_ARMED
    _FLIGHT.attach(runtime)
    if not _ATEXIT_ARMED:
        atexit.register(_FLIGHT._atexit_hook)
        _ATEXIT_ARMED = True


def detach_runtime(runtime: "Runtime") -> None:
    """Remove ``runtime`` from bundle scope (called by clean shutdown)."""
    _FLIGHT.detach(runtime)


# --------------------------------------------------------------------------
# Offline reading
# --------------------------------------------------------------------------


def load_bundle(path: "str | Path") -> dict[str, Any]:
    """Read a crash bundle directory back into memory.

    Returns ``{"manifest", "events", "metrics", "inflight", "config",
    "timeseries", "skipped_lines"}``. A truncated ``events.jsonl`` (the process died
    mid-write) is expected, not an error: unparseable lines are skipped
    and counted in ``skipped_lines``. A missing or unparseable manifest
    raises ``ValueError`` — without it the directory is not a bundle.
    """
    bundle = Path(path)
    manifest_path = bundle / BUNDLE_MANIFEST
    if not manifest_path.is_file():
        raise ValueError(f"{bundle}: no {BUNDLE_MANIFEST} (not a crash bundle)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: unparseable manifest: {exc}") from exc
    events: list[dict[str, Any]] = []
    skipped = 0
    events_path = bundle / BUNDLE_EVENTS
    if events_path.is_file():
        for line in events_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    result: dict[str, Any] = {
        "manifest": manifest,
        "events": events,
        "skipped_lines": skipped,
    }
    for key, name in (("metrics", BUNDLE_METRICS),
                      ("inflight", BUNDLE_INFLIGHT),
                      ("config", BUNDLE_CONFIG),
                      ("timeseries", BUNDLE_TIMESERIES)):
        side = bundle / name
        if side.is_file():
            try:
                result[key] = json.loads(side.read_text())
            except json.JSONDecodeError:
                result[key] = None  # truncated side file: keep the events
        else:
            result[key] = None
    return result


def find_bundles(crash_dir: "str | Path") -> list[Path]:
    """Bundle directories under ``crash_dir``, oldest first."""
    root = Path(crash_dir)
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and (p / BUNDLE_MANIFEST).is_file()
    )
