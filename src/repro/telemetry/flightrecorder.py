"""Black-box flight recorder: always-on evidence for post-mortems.

The span recorder (:mod:`repro.telemetry.recorder`) is opt-in —
exactly wrong for the question "what was the runtime doing just before
it died?". This module keeps a second, much smaller ring that is
**always on**: every control-plane transition drops one tuple into a
bounded lossy :class:`collections.deque`, independent of whether
telemetry is enabled. Steady-state cost is one
attribute check plus one deque append per event — no locks, no
allocation beyond the tuple.

One rule says what lands here. An **event** — ``telemetry.event(name,
category, **attrs)``: retry, failover, rejection, health flip,
injected fault — is one call that reaches *both* rings: this one
always, the trace ring while telemetry records and the trace is kept. A
**note** — :func:`note`: ``target.promoted`` / ``target.stopped``,
``offload.post_failed`` — is black-box only:
breadcrumbs too frequent or too low-level for a trace.

On a *trigger* — an offload error escaping to the caller, peer-death
detection in a transport, ``SIGUSR2``, or process exit
with offloads still in flight — the recorder dumps a post-mortem
bundle to the configured crash directory:

``crash-<pid>-<seq>-<reason>/``
    * ``manifest.json`` — schema version, reason, trigger attrs, pid,
      wall clock, ring stats, offloads pending;
    * ``events.jsonl``  — the recent events, one row per line in the
      exporter's shape (:func:`repro.telemetry.export.records_to_dicts`;
      ``repro.telemetry.report`` reads it directly);
    * ``state.json``    — one entry per attached runtime: the ``host``
      part of ``offload.introspect()`` (``Runtime.stats()``: window
      occupancy with the correlation ids a crash would strand, policy,
      the backend's transport stats with its flush reasons, QoS /
      health state), captured whether or not the span recorder is on;
    * ``metrics.json``  — the registry snapshot (telemetry enabled).

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
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.offload.runtime import Runtime

__all__ = [
    "BUNDLE_EVENTS",
    "BUNDLE_MANIFEST",
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_STATE",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "arm",
    "attach_runtime",
    "configure",
    "detach_runtime",
    "disarm",
    "find_bundles",
    "get",
    "load_bundle",
    "note",
    "trigger",
]

#: Bundle file names (one directory per dump).
BUNDLE_MANIFEST = "manifest.json"
BUNDLE_EVENTS = "events.jsonl"
BUNDLE_STATE = "state.json"
BUNDLE_METRICS = "metrics.json"

#: Bump when the on-disk bundle shape changes incompatibly; there is one
#: reader, and it refuses every other version.
BUNDLE_SCHEMA_VERSION = 2

#: Default ring size: generous for a control-plane event stream (the
#: data plane never notes here), tiny next to the telemetry ring.
DEFAULT_CAPACITY = 2048

#: Repeated triggers within this many seconds coalesce into one bundle
#: (a dying peer fails every pending future at once; one bundle tells
#: the whole story).
DEFAULT_DEBOUNCE = 1.0


def _pending(state: list[dict[str, Any]]) -> int:
    """Offloads in flight across the runtimes of one state snapshot."""
    return sum(e["window"]["in_flight"] for e in state if "window" in e)


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
        self._ring: deque[tuple[int, str, str, dict[str, Any]]] = deque(
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
    def record(self, name: str, category: str, attrs: dict[str, Any]) -> None:
        """Drop one event into the ring (the near-zero hot call; the
        black-box half of ``telemetry.event``)."""
        if not self.enabled:
            return
        self._ring.append((time.time_ns(), name, category, attrs))
        self._noted += 1

    def note(self, name: str, **attrs: Any) -> None:
        """A black-box-only breadcrumb (category ``flight``)."""
        self.record(name, "flight", attrs)

    def records(self) -> list[tuple[int, str, str, dict[str, Any]]]:
        """Snapshot of retained ``(ts_ns, name, category, attrs)``,
        oldest first."""
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

    def state(self) -> list[dict[str, Any]]:
        """The state snapshot a bundle carries: per attached runtime,
        ``Runtime.stats()``, the ``host`` entry of ``offload.introspect()``
        (a dying peer is not asked anything)."""
        entries: list[dict[str, Any]] = []
        for runtime in list(self._runtimes):
            try:
                entries.append(runtime.stats())
            except Exception as exc:  # noqa: BLE001 - crash path, best effort
                entries.append({"error": f"{type(exc).__name__}: {exc}"})
        return entries

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
        # Imported lazily: the flight recorder is always on and must not
        # pull the telemetry stack in at import time.
        from repro.telemetry import recorder as telemetry
        from repro.telemetry.export import records_to_dicts

        events = self.records()
        pid = os.getpid()
        rows = records_to_dicts(
            telemetry.EventRecord(name, category, ts_ns, 0, 0, pid, 0, attrs)
            for ts_ns, name, category, attrs in events
        )
        with (bundle / BUNDLE_EVENTS).open("w") as fh:
            for row in rows:
                fh.write(json.dumps(row, default=str) + "\n")
        state = self.state()
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
            "pending": _pending(state),
        }
        (bundle / BUNDLE_MANIFEST).write_text(
            json.dumps(manifest, indent=1, default=str)
        )
        (bundle / BUNDLE_STATE).write_text(
            json.dumps(state, indent=1, default=str)
        )
        recorder = telemetry.get()
        if recorder is not None:
            (bundle / BUNDLE_METRICS).write_text(
                json.dumps(recorder.metrics.snapshot(), indent=1, default=str)
            )
        self._suppressed = 0
        self._dumps.append(bundle)
        return bundle

    # -- process hooks -----------------------------------------------------
    def install_signal_handler(self) -> None:
        """Dump on ``SIGUSR2`` (operator-initiated snapshot of a live,
        possibly wedged process); a no-op off the main thread, where
        signal handlers cannot be installed."""

        def _on_sigusr2(signum: int, frame: Any) -> None:
            self.trigger("sigusr2", force=True)

        try:
            signal.signal(signal.SIGUSR2, _on_sigusr2)
        except ValueError:  # not the main thread
            pass

    def _atexit_hook(self) -> None:
        pending = _pending(self.state())
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


def arm(crash_dir: "str | Path") -> tuple[Path | None, Any]:
    """:func:`configure` for a session that ends (``offload.init``):
    returns what it replaced — crash dir and ``SIGUSR2`` handler — for
    :func:`disarm`, so a later session never dumps into a directory an
    earlier one chose."""
    replaced = (_FLIGHT.crash_dir, signal.getsignal(signal.SIGUSR2))
    configure(crash_dir)
    return replaced


def disarm(replaced: tuple[Path | None, Any]) -> None:
    """Undo :func:`arm` (``offload.finalize``)."""
    _FLIGHT.crash_dir, handler = replaced
    try:
        signal.signal(signal.SIGUSR2, handler)
    except (ValueError, TypeError):
        pass  # off the main thread arm installed none; or not a Python handler


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

    Returns ``{"manifest", "events", "state", "metrics",
    "skipped_lines"}``. A truncated ``events.jsonl`` (the process died
    mid-write) is expected, not an error: unparseable lines are skipped
    and counted in ``skipped_lines``; a truncated side file reads as
    ``None`` and keeps the events. A missing or unparseable manifest
    raises ``ValueError`` — without it the directory is not a bundle —
    and so does a manifest of another :data:`BUNDLE_SCHEMA_VERSION`.
    """
    bundle = Path(path)
    manifest_path = bundle / BUNDLE_MANIFEST
    if not manifest_path.is_file():
        raise ValueError(f"{bundle}: no {BUNDLE_MANIFEST} (not a crash bundle)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: unparseable manifest: {exc}") from exc
    version = manifest.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise ValueError(
            f"{bundle}: bundle schema version {version}, this reader "
            f"reads version {BUNDLE_SCHEMA_VERSION} only"
        )
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
    for key, name in (("state", BUNDLE_STATE), ("metrics", BUNDLE_METRICS)):
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
    # By the manifest's write time: names sort ``-10-`` before ``-9-``.
    return sorted(
        (p for p in root.iterdir()
         if p.is_dir() and (p / BUNDLE_MANIFEST).is_file()),
        key=lambda p: (p / BUNDLE_MANIFEST).stat().st_mtime_ns,
    )
