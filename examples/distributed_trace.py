#!/usr/bin/env python3
"""Distributed causal tracing across two processes, with live metrics.

The walkthrough for ``docs/observability.md``'s distributed-tracing
section: ``init("tcp", telemetry=True)`` forks a TCP target server,
every ``offload()`` mints a W3C-style trace context that rides inside
the version-2 active-message header, and the target answers under a
version-3 header that carries its pid and execute time back. The host
records that as the offload's ``offload.execute``, with the same
``trace_id``, inside the round trip it measured itself — so one
recorder holds both ends, no clock offset is estimated, and each
trace's critical path is monotone: serialize -> enqueue -> execute ->
reply -> deserialize, in order, across both pids.

While the runtime is up, the recorder's metrics registry holds the
live counters and per-phase latency summaries; the example prints two
of them from ``telemetry.get().metrics.snapshot()``.

Run::

    python examples/distributed_trace.py
"""

import tempfile
from pathlib import Path

from repro.offload import api as offload
from repro.offload import f2f, offloadable
from repro.telemetry import recorder as telemetry
from repro.telemetry.distributed import critical_path, group_by_trace
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.report import render_critical_paths


@offloadable
def fma(a: float, b: float, c: float) -> float:
    """A tiny offloaded kernel (the message cost dominates)."""
    return a * b + c


def main() -> None:
    runtime = offload.init("tcp", telemetry=True)
    print(f"target server: pid={runtime.backend.introspect_target()['pid']}")

    results = [offload.sync(1, f2f(fma, float(i), 2.0, 1.0)) for i in range(4)]
    assert results == [i * 2.0 + 1.0 for i in range(4)]

    # Two series of the live registry: a counter and a phase histogram.
    metrics = telemetry.get().metrics.snapshot()
    serialize = metrics["histograms"]["phase.offload.serialize"]
    print(f"live metrics: future.settled {metrics['counters']['future.settled']}, "
          f"phase.offload.serialize count {serialize['count']} "
          f"p50 {serialize['p50'] * 1e6:.1f} us")

    recorder = telemetry.get()
    offload.finalize()  # the recorder stays readable after it

    records = recorder.records()
    groups = group_by_trace(records)
    pids = {record.pid for group in groups.values() for record in group}
    print(f"\n{len(groups)} distributed traces across pids {sorted(pids)}")
    assert len(groups) == len(results)
    for trace_id, group in groups.items():
        spans = [r for r in group if r.kind == "span"]
        execs = [s for s in spans if s.name == "offload.execute"]
        assert execs, f"trace {trace_id} lost its target-side execute span"
        assert len({r.pid for r in group}) == 2, "one trace, two processes"
        path = critical_path(group)
        starts = [segment["start_ns"] for segment in path]
        assert starts == sorted(starts), "merged timeline is not monotone"

    out = Path(tempfile.mkdtemp(prefix="repro-dist-")) / "distributed_trace.json"
    write_chrome_trace(out, recorder, metadata={"example": "distributed_trace"})
    print(f"merged trace written: {out}\n")
    print(render_critical_paths(records))


if __name__ == "__main__":
    main()
