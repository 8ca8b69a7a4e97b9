"""Disabled-telemetry overhead guards.

The contract from the recorder module docstring: while telemetry is off,
instrumented call sites reduce to a single global read plus a shared
no-op object — nothing is recorded, nothing accumulates, nothing is
constructed. That is a statement about structure, so it is checked by
counting calls (``tests/callcount.py``), not by reading a clock: an
accidental "always record" makes an order of magnitude more of them.
"""

from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import NOOP_SPAN

from tests.callcount import profile_calls


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert telemetry.span("offload.execute", bytes=1) is NOOP_SPAN
        assert telemetry.span("a") is telemetry.span("b")

    def test_no_state_accumulates_while_disabled(self):
        for i in range(100):
            with telemetry.span("s", i=i):
                telemetry.event("e")
                telemetry.count("c")
        rec = telemetry.enable()
        assert rec.records() == []
        assert rec.recorded == 0
        snap = rec.metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_span_cost_is_negligible(self):
        def instrumented():
            with telemetry.span("offload.execute", bytes=1) as span:
                return span

        counts = profile_calls(instrumented)
        assert counts.value is NOOP_SPAN
        # The helper and the shared no-op's enter/exit: three calls, no
        # constructor among them, no lock.
        assert counts.python == ["span", "__enter__", "__exit__"]
        assert counts.calls == 3
        assert counts.locks == 0

    def test_disabled_count_cost_is_negligible(self):
        counts = profile_calls(lambda: telemetry.count("c"))
        assert (counts.calls, counts.python, counts.locks) == (1, ["count"], 0)

    # A whole disabled-path offload is budgeted the same way (calls,
    # allocations, locks) by tests/offload/test_offload_budget.py.


class TestEnabledSanity:
    def test_enabled_span_records_each_call(self):
        rec = telemetry.enable()
        for _ in range(10):
            with telemetry.span("s"):
                pass
        assert len(rec.spans("s")) == 10
