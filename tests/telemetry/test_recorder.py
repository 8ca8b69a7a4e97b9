"""Unit tests for the span/event recorder and its global switchboard."""

import threading

import pytest

from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import NOOP_SPAN, Recorder


class FakeClock:
    """Deterministic nanosecond clock advancing by a fixed step per read."""

    def __init__(self, step_ns: int = 1000) -> None:
        self.now = 0
        self.step = step_ns

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class TestSpans:
    def test_span_records_duration_and_attrs(self):
        rec = Recorder(clock_ns=FakeClock(500))
        with rec.span("offload.execute", bytes=128) as span:
            span.set("handler", "add")
        (record,) = rec.spans()
        assert record.name == "offload.execute"
        assert record.duration_ns == 500
        assert record.attrs == {"bytes": 128, "handler": "add"}
        assert record.end_ns == record.start_ns + record.duration_ns

    def test_nested_spans_link_parent_ids(self):
        rec = Recorder(clock_ns=FakeClock())
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert rec.current_span_id() == inner.span_id
            assert rec.current_span_id() == outer.span_id
        by_name = {r.name: r for r in rec.spans()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == 0
        assert rec.current_span_id() == 0

    def test_exception_closes_span_and_tags_error(self):
        rec = Recorder(clock_ns=FakeClock())
        with pytest.raises(ValueError):
            with rec.span("offload.execute"):
                raise ValueError("boom")
        (record,) = rec.spans()
        assert record.attrs["error"] == "ValueError"
        assert rec.current_span_id() == 0

    def test_events_record_parent_and_attrs(self):
        rec = Recorder(clock_ns=FakeClock())
        with rec.span("outer") as outer:
            rec.event("fault.injected", category="fault", kind="drop")
        (event,) = rec.events()
        assert event.name == "fault.injected"
        assert event.category == "fault"
        assert event.parent_id == outer.span_id
        assert event.attrs == {"kind": "drop"}


class TestRing:
    def test_capacity_bounds_retention_and_counts_drops(self):
        rec = Recorder(capacity=4, clock_ns=FakeClock())
        for i in range(10):
            rec.event(f"e{i}")
        assert len(rec.records()) == 4
        assert rec.recorded == 10
        assert rec.dropped == 6
        assert [r.name for r in rec.records()] == ["e6", "e7", "e8", "e9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Recorder(capacity=0)

    def test_clear_keeps_counting_ids(self):
        rec = Recorder(clock_ns=FakeClock())
        with rec.span("a") as s1:
            pass
        rec.clear()
        with rec.span("b") as s2:
            pass
        assert rec.records()[0].name == "b"
        assert s2.span_id > s1.span_id


class TestThreadSafety:
    def test_concurrent_spans_nest_per_thread(self):
        rec = Recorder(capacity=100_000)
        errors = []

        def worker(tag):
            try:
                for _ in range(200):
                    with rec.span(f"outer.{tag}") as outer:
                        with rec.span(f"inner.{tag}") as inner:
                            assert inner.parent_id == outer.span_id
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert rec.recorded == 4 * 200 * 2
        # Every inner span's parent must be an outer span of the same tag.
        outers = {}
        for r in rec.spans("outer."):
            outers[r.span_id] = r.name.split(".", 1)[1]
        for r in rec.spans("inner."):
            assert outers[r.parent_id] == r.name.split(".", 1)[1]


class TestSwitchboard:
    def test_enable_disable_cycle(self):
        assert not telemetry.enabled()
        rec = telemetry.enable()
        assert telemetry.enabled()
        assert telemetry.get() is rec
        assert telemetry.enable() is rec  # idempotent
        detached = telemetry.disable()
        assert detached is rec
        assert not telemetry.enabled()
        assert telemetry.get() is None

    def test_enable_with_injected_recorder(self):
        rec = Recorder(clock_ns=FakeClock())
        assert telemetry.enable(recorder=rec) is rec
        with telemetry.span("x"):
            pass
        assert rec.spans()[0].name == "x"

    def test_disabled_span_is_noop_singleton(self):
        assert telemetry.span("a") is NOOP_SPAN
        assert telemetry.span("b") is telemetry.span("c")
        with telemetry.span("a") as s:
            s.set("k", 1)
        assert telemetry.current_span_id() == 0

    def test_disabled_helpers_do_nothing(self):
        telemetry.event("e")
        telemetry.count("c")
        telemetry.gauge("g", 1.0)
        # Nothing recorded anywhere once enabled afterwards.
        rec = telemetry.enable()
        assert rec.records() == []
        assert rec.metrics.snapshot()["counters"] == {}

    def test_enabled_helpers_record(self):
        rec = telemetry.enable()
        with telemetry.span("s", node=1):
            telemetry.event("e")
        telemetry.count("offload.issued", 3)
        telemetry.gauge("health.node_state.1", 2.5)
        assert [r.name for r in rec.spans()] == ["s"]
        assert [r.name for r in rec.events()] == ["e"]
        snap = rec.metrics.snapshot()
        assert snap["counters"]["offload.issued"] == 3
        assert snap["gauges"]["health.node_state.1"] == 2.5
        assert snap["histograms"]["phase.s"]["count"] == 1

    def test_undeclared_or_wrong_kind_series_is_refused(self):
        rec = telemetry.enable()
        telemetry.count("offload.issued")  # declared: created, then a hit
        with pytest.raises(LookupError, match="not declared"):
            telemetry.count("offload.made_up")
        with pytest.raises(TypeError, match="declared as a counter"):
            telemetry.gauge("offload.issued", 1.0)
        with pytest.raises(TypeError, match="declared as a histogram"):
            rec.metrics.counter("kernel.k.offload")
        assert rec.metrics.snapshot()["counters"] == {"offload.issued": 1}
        assert rec.metrics.snapshot()["gauges"] == {}


class TestCompleteOffload:
    def test_noop_while_telemetry_disabled(self):
        telemetry.complete_offload(kernel="k", duration_ns=10)

    def test_feeds_profiles(self):
        rec = Recorder()
        telemetry.complete_offload(kernel="k", duration_ns=500, recorder=rec)
        assert rec.kernel_offload("k").count == 1
