"""Disabled-telemetry overhead guards.

The contract from the recorder module docstring: while telemetry is off,
instrumented call sites reduce to a single global read plus a shared
no-op object — nothing is recorded, nothing accumulates, and the cost
per call stays far below a microsecond-scale offload budget. Thresholds
here are deliberately generous absolute bounds so slow CI machines do
not flake, while still catching accidental "always record" regressions
(which cost orders of magnitude more).
"""

import time

from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import NOOP_SPAN


def per_call_ns(fn, reps=20_000):
    start = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - start) / reps


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert telemetry.span("offload.execute", bytes=1) is NOOP_SPAN
        assert telemetry.span("a") is telemetry.span("b")

    def test_no_state_accumulates_while_disabled(self):
        for i in range(100):
            with telemetry.span("s", i=i):
                telemetry.event("e")
                telemetry.count("c")
                telemetry.observe("h", 0.1)
        rec = telemetry.enable()
        assert rec.records() == []
        assert rec.recorded == 0
        snap = rec.metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_span_cost_is_negligible(self):
        def instrumented():
            with telemetry.span("offload.execute"):
                pass

        # A generous absolute bound: a disabled span must cost well under
        # 5 µs per call (observed ~0.1-0.3 µs; a recording span costs more
        # than the bound, so enabling-by-accident trips this).
        assert per_call_ns(instrumented) < 5_000

    def test_disabled_count_cost_is_negligible(self):
        assert per_call_ns(lambda: telemetry.count("c")) < 5_000

    # The per-event wall-clock bound that stood here turned tier-1 red on
    # loaded runners; the disabled path is now gated structurally (calls,
    # allocations, locks per offload) by tests/offload/test_offload_budget.py.


class TestEnabledSanity:
    def test_enabled_span_records_each_call(self):
        rec = telemetry.enable()
        for _ in range(10):
            with telemetry.span("s"):
                pass
        assert len(rec.spans("s")) == 10
