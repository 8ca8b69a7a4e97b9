"""Live runtime introspection: one merged host + target state snapshot.

The metrics registry answers "how much, how fast"; the flight recorder
answers "what just happened". This module answers the operator's third
question — **"what is it doing right now?"** — by merging, at call
time:

* the runtime's own description, :meth:`Runtime.stats()
  <repro.offload.runtime.Runtime.stats>` (in-flight window occupancy
  with per-handle labels, policy, QoS queue depths, health-monitor
  verdicts, the backend's transport stats) — the same
  entry a crash bundle writes per runtime as ``state.json``;
* target-side state fetched live through the backend contract's
  :meth:`~repro.backends.base.Backend.introspect_target` (over the
  wire, the ``OP_INTROSPECT`` roundtrip: worker-pool depth,
  executed-message count, shm ring cursors/occupancy) — every transport
  answers the same dict shape, so nothing here is per-backend;
* the flight recorder's ring counters, so a wedged process can be told
  apart from an idle one ("nothing noted for minutes" vs "sheds every
  second").

The snapshot is plain JSON-serializable data; ``offload.introspect()``
returns it for the global runtime.
"""

from __future__ import annotations

import time
from typing import Any

from repro.telemetry import flightrecorder

__all__ = ["SNAPSHOT_SCHEMA_VERSION", "snapshot"]

#: Bump when the snapshot shape changes incompatibly (2: ``host`` is
#: ``Runtime.stats()``, the transport stats sit under ``host["backend"]``;
#: 3: no time-series section; 4: ``host`` lost the duplicate-request
#: counters and ``host["policy"]`` their flag; 5: ``host["qos"]`` holds
#: only ``admission``: ``host.qos.window`` went with the fair window).
SNAPSHOT_SCHEMA_VERSION = 5

#: Deadline (s) for the target-side ``OP_INTROSPECT`` roundtrip. Short:
#: introspection is an observer, it must not hang alongside the thing it
#: observes.
PROBE_TIMEOUT = 1.0


def _target(backend: Any) -> dict[str, Any] | None:
    """The target's live state, an ``error`` dict when unreachable, or
    ``None`` when the backend has no target state (the simulators)."""
    try:
        return backend.introspect_target(timeout=PROBE_TIMEOUT)
    except Exception as exc:  # noqa: BLE001 - observers must not raise
        return {"role": "target", "error": f"{type(exc).__name__}: {exc}"}


def snapshot(runtime: Any, *, probe_target: bool = True) -> dict[str, Any]:
    """One merged, JSON-serializable live-state snapshot of ``runtime``.

    ``probe_target=False`` skips the wire roundtrip — used when the
    caller only wants host-side state (e.g. the target is known dead and
    the question is what the host is still holding).
    """
    flight = flightrecorder.get()
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "time_ns": time.time_ns(),
        "host": runtime.stats(),
        "target": _target(runtime.backend) if probe_target else None,
        "flight": {
            "noted": flight.noted,
            "dropped": flight.dropped,
            "dumps": [str(path) for path in flight.dumps],
            "crash_dir": str(flight.crash_dir)
            if flight.crash_dir is not None else None,
        },
    }
