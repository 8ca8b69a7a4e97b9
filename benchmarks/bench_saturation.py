"""Experiment S2 — adaptive coalescing on the pipelined TCP hot path.

**Coalescing effectiveness** — the acceptance ratio (1.5x) applied to
the quantity batching actually controls: wire operations per invoke.
With the target throttled so a real backlog builds, at least 1.5x fewer
``sendmsg`` calls than frames must hit the socket (measured ~8-16x once
the pipeline is deep); every reply must still arrive intact, proving
the batch grammar is wire-compatible.

What coalescing does to latency and throughput end to end is measured
by ``python -m perfbench run`` (``pipelined_tcp`` against ``sync_tcp``;
the on/off table the decision rests on is in docs/architecture.md).
Wall-clock rates per depth land in ``BENCH_saturation.json`` (via
``python -m repro.bench.cli saturation``) for the cross-run regression
job, which tracks them with a tolerance band on a fixed runner class.
"""

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.bench.tables import render_table
from repro.ham import f2f
from repro.offload import Runtime
from repro.workloads.kernels import sleep_kernel

#: The acceptance ratio, applied to frames per wire operation.
COALESCING_FLOOR = 1.5


@pytest.fixture(scope="module")
def loaded_batch_stats():
    """Coalescer stats for a burst posted faster than the target drains.

    A 2 ms sleep kernel on 2 workers caps the target near 1k invokes/s
    while the host posts far faster, so a real backlog builds and the
    in-flight depth stays above the idle threshold — the regime the
    coalescer exists for.
    """
    process, address = spawn_local_server(workers=2)
    backend = TcpBackend(
        address, on_shutdown=lambda: process.join(timeout=10)
    )
    runtime = Runtime(backend, window=512)
    try:
        futures = [
            runtime.async_(1, f2f(sleep_kernel, 0.002)) for _ in range(256)
        ]
        values = [future.get(timeout=60.0) for future in futures]
        stats = backend.stats()["batch"]
        return values, stats
    finally:
        runtime.shutdown()
        if process.is_alive():  # pragma: no cover - cleanup safety
            process.terminate()


@pytest.fixture(scope="module")
def saturation_report(report, loaded_batch_stats):
    _, stats = loaded_batch_stats
    rows = [
        {"metric": "frames per wire op (loaded)",
         "value": f"{stats['avg_batch_frames']:.1f}"},
    ]
    text = render_table(
        rows, title="S2 — adaptive coalescing on the pipelined TCP path"
    )
    report("saturation", text)
    return rows


class TestCoalescingGates:
    def test_loaded_pipeline_coalesces(
        self, loaded_batch_stats, saturation_report
    ):
        """>= 1.5x fewer wire ops than frames once a backlog exists."""
        values, stats = loaded_batch_stats
        assert stats["avg_batch_frames"] >= COALESCING_FLOOR
        # Wire compatibility: every coalesced frame produced its reply.
        assert values == [0.002] * 256
        assert stats["buffered_frames"] == 0

    def test_load_triggers_budget_flushes(self, loaded_batch_stats):
        """Under load, flushes come from budgets/deadlines, not idling."""
        _, stats = loaded_batch_stats
        reasons = stats["flush_reasons"]
        busy = sum(
            reasons.get(reason, 0)
            for reason in ("count", "size", "deadline", "drive")
        )
        assert busy >= reasons.get("idle", 0)
