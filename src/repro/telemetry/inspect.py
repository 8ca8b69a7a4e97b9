"""Live runtime introspection: one merged host + target state snapshot.

The metrics registry answers "how much, how fast"; the flight recorder
answers "what just happened". This module answers the operator's third
question — **"what is it doing right now?"** — by merging, at call
time:

* the runtime's own description, :meth:`Runtime.stats()
  <repro.offload.runtime.Runtime.stats>` (in-flight window occupancy
  with per-handle labels, policy, QoS queue depths, health-monitor
  verdicts, hedger counters, the backend's transport stats) — the same
  entry a crash bundle writes per runtime as ``state.json``;
* target-side state fetched live over the wire via the backends'
  ``OP_INTROSPECT`` roundtrip (worker-pool depth, executed-message
  count, shm ring cursors/occupancy) — every transport answers the same
  dict shape, so nothing here is per-backend;
* the flight recorder's ring counters, so a wedged process can be told
  apart from an idle one ("nothing noted for minutes" vs "sheds every
  second").

The snapshot is plain JSON-serializable data. It is surfaced on the
metrics server as ``GET /introspect`` (see
:class:`~repro.telemetry.promexport.MetricsServer`) and rendered live
by ``python -m repro.telemetry.top``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.telemetry import flightrecorder

__all__ = ["RuntimeInspector", "SNAPSHOT_SCHEMA_VERSION"]

#: Bump when the snapshot shape changes incompatibly (2: ``host`` is
#: ``Runtime.stats()``, the transport stats sit under ``host["backend"]``).
SNAPSHOT_SCHEMA_VERSION = 2


class RuntimeInspector:
    """Builds merged live-state snapshots for one
    :class:`~repro.offload.runtime.Runtime`."""

    #: Deadline (s) for the target-side ``OP_INTROSPECT`` roundtrip.
    #: Short: introspection is an observer, it must not hang alongside
    #: the thing it observes.
    PROBE_TIMEOUT = 1.0

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime

    # -- host side ---------------------------------------------------------
    def host(self) -> dict[str, Any]:
        """Everything knowable without touching the wire: the runtime's
        ``stats()`` minus the registry snapshot — that is the process's,
        not the runtime's, and has its own outlets (``/metrics``, a
        bundle's ``metrics.json``)."""
        state = self.runtime.stats()
        state.pop("telemetry", None)
        return state

    # -- target side -------------------------------------------------------
    def target_snapshot(self) -> dict[str, Any] | None:
        """The target's live state, or an ``error`` dict when unreachable.

        ``None`` only when the backend has no introspection support at
        all (predates ``OP_INTROSPECT``).
        """
        probe = getattr(self.runtime.backend, "introspect_target", None)
        if probe is None:
            return None
        try:
            return probe(timeout=self.PROBE_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - observers must not raise
            return {
                "role": "target",
                "error": f"{type(exc).__name__}: {exc}",
            }

    # -- time series -------------------------------------------------------
    #: Non-target series always included in the tsdb section when they
    #: exist — the headline "is it moving" signals.
    TSDB_HEADLINES = ("offload.issued", "future.settled",
                      "reactor.loop_lag_us")

    def tsdb_snapshot(self, *, window: float = 60.0,
                      points: int = 30) -> dict[str, Any] | None:
        """Recent-history digest from the in-process TSDB, if installed.

        One entry per ``target.*`` series plus the headline counters:
        latest value, per-second :meth:`~repro.telemetry.tsdb.
        TimeSeriesStore.rate` over ``window``, and the last ``points``
        raw values (the ``top`` CLI renders these as sparklines).
        """
        from repro.telemetry import recorder as telemetry

        recorder = telemetry.get()
        tsdb = recorder.tsdb if recorder is not None else None
        if tsdb is None:
            return None
        store = tsdb.store
        names = [n for n in store.names()
                 if n.startswith("target.") or n in self.TSDB_HEADLINES]
        series: dict[str, Any] = {}
        for name in names:
            samples = store.range(name, window)
            if not samples:
                continue
            series[name] = {
                "last": samples[-1][1],
                "rate": round(store.rate(name, window), 6),
                "points": [value for _, value in samples[-points:]],
            }
        return {
            "samples": tsdb.samples,
            "interval": tsdb.interval,
            "series": series,
            "anomalies": tsdb.detector.anomalies(),
        }

    # -- the merged snapshot -----------------------------------------------
    def snapshot(self, *, probe_target: bool = True) -> dict[str, Any]:
        """One merged, JSON-serializable live-state snapshot.

        ``probe_target=False`` skips the wire roundtrip — used when the
        caller only wants host-side state (e.g. the target is known
        dead and the question is what the host is still holding).
        """
        flight = flightrecorder.get()
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "time_ns": time.time_ns(),
            "host": self.host(),
            "target": self.target_snapshot() if probe_target else None,
            "tsdb": self.tsdb_snapshot(),
            "flight": {
                "noted": flight.noted,
                "dropped": flight.dropped,
                "dumps": [str(path) for path in flight.dumps],
                "crash_dir": str(flight.crash_dir)
                if flight.crash_dir is not None else None,
            },
        }
