#!/usr/bin/env python3
"""A fully traced TCP remote offload, chaos included.

Demonstrates the telemetry subsystem end to end on the real offload
path: ``init(..., telemetry=True)`` forks a TCP target server behind a
fault-injecting proxy that drops one invoke on the wire, the resilience
policy retries it, and the host's records — which include the target's
``offload.execute``, whose duration rides the target's reply — are
written as a Chrome ``trace_event`` file. Open the trace in
https://ui.perfetto.dev (or ``chrome://tracing``): the host row shows
``offload.serialize -> offload.enqueue -> offload.transport ->
offload.reply -> offload.deserialize``, the server row shows
``offload.execute``, and the injected fault plus the retry appear as
instant events between them. Each offload is one trace across the two
pids, with a monotone critical path.

Run::

    python examples/traced_offload.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.backends import create_backend
from repro.backends.faulty import FaultInjectingBackend
from repro.offload import api as offload
from repro.offload import f2f, offloadable
from repro.offload.resilience import ResiliencePolicy
from repro.telemetry.distributed import critical_path, group_by_trace
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.report import render_report


@offloadable
def dot(n: int, seed: int) -> float:
    """An offloaded kernel with deterministic data."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(n), rng.random(n)
    return float(np.dot(a, b))


def main() -> None:
    # One scheduled drop (op #2) makes the chaos visible in the trace;
    # the resilience policy retries it, so the run still succeeds.
    backend = FaultInjectingBackend(create_backend("tcp"), schedule={2: "drop"})
    policy = ResiliencePolicy(max_retries=2, backoff_base=0.001, deadline=30.0)
    runtime = offload.init(backend, telemetry=True, policy=policy)
    recorder = telemetry.get()
    print(f"target server: pid={backend.introspect_target()['pid']}")

    results = [
        offload.sync(1, f2f(dot, 50_000, seed), idempotent=True)
        for seed in range(5)
    ]
    print(f"5 offloads done, faults injected: {len(backend.fault_log)}, "
          f"retries: {runtime.stats()['retries']}")
    assert len(results) == 5
    offload.finalize()  # the recorder stays readable after it

    groups = group_by_trace(recorder.records())
    assert len(groups) == len(results)
    for group in groups.values():
        assert len({r.pid for r in group}) == 2, "one trace, two processes"
        assert any(r.name == "offload.execute" for r in group)
        starts = [segment["start_ns"] for segment in critical_path(group)]
        assert starts == sorted(starts), "the critical path is not monotone"

    out = Path(tempfile.mkdtemp(prefix="repro-trace-")) / "traced_offload.json"
    write_chrome_trace(out, recorder, metadata={"example": "traced_offload"})
    print(f"trace written: {out}")
    print("open it in https://ui.perfetto.dev or chrome://tracing\n")
    print(render_report(recorder.records(), prefix=""))


if __name__ == "__main__":
    main()
