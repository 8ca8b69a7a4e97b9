"""Tests for trace grouping and critical paths."""

from repro.telemetry.distributed import (
    critical_path,
    group_by_trace,
    trace_summary,
)
from repro.telemetry.recorder import EventRecord, SpanRecord

HOST_PID = 100
TARGET_PID = 200
TRACE = "ab" * 16


def span(name, start, dur, *, span_id=0, parent=0, pid=HOST_PID, trace=TRACE):
    return SpanRecord(
        name=name, category="offload", start_ns=start, duration_ns=dur,
        span_id=span_id, parent_id=parent, pid=pid, tid=1, trace_id=trace,
    )


def event(name, ts, *, pid=HOST_PID, trace=TRACE):
    return EventRecord(
        name=name, category="offload", ts_ns=ts, span_id=0, parent_id=0,
        pid=pid, tid=1, trace_id=trace,
    )


class TestGroupingAndPaths:
    def test_group_by_trace_skips_untraced(self):
        records = [
            span("a", 0, 1),
            span("b", 5, 1, trace="cd" * 16),
            span("untraced", 2, 1, trace=""),
        ]
        groups = group_by_trace(records)
        assert set(groups) == {TRACE, "cd" * 16}
        assert [r.name for r in groups[TRACE]] == ["a"]

    def test_critical_path_covers_whole_trace(self):
        records = [
            span("offload.serialize", 0, 100, span_id=1),
            span("offload.enqueue", 120, 50, span_id=2),
            span("offload.execute", 200, 300, span_id=10, parent=1,
                 pid=TARGET_PID),
            span("offload.deserialize", 600, 40, span_id=3),
        ]
        path = critical_path(records)
        names = [seg["phase"] for seg in path]
        assert names == [
            "offload.serialize", "(wait)", "offload.enqueue", "(wait)",
            "offload.execute", "(wait)", "offload.deserialize",
        ]
        starts = [seg["start_ns"] for seg in path]
        assert starts == sorted(starts)
        assert sum(seg["duration_ns"] for seg in path) == 640

    def test_cross_process_parent_does_not_demote_host_span(self):
        # execute parents to the host serialize span; serialize must
        # still count as a phase (only same-pid children demote).
        records = [
            span("offload.serialize", 0, 100, span_id=1),
            span("offload.execute", 200, 50, span_id=10, parent=1,
                 pid=TARGET_PID),
        ]
        names = [seg["phase"] for seg in critical_path(records)]
        assert "offload.serialize" in names
        assert "offload.execute" in names

    def test_local_parent_is_demoted(self):
        records = [
            span("offload.transport", 0, 100, span_id=1),
            span("offload.reply", 20, 30, span_id=2, parent=1),
        ]
        names = [seg["phase"] for seg in critical_path(records)]
        assert "offload.transport" not in names
        assert "offload.reply" in names

    def test_overlapping_phase_hands_over(self):
        # enqueue still open when execute starts: execute takes over.
        records = [
            span("offload.enqueue", 0, 500, span_id=1),
            span("offload.execute", 200, 100, span_id=10, pid=TARGET_PID),
        ]
        path = critical_path(records)
        assert [seg["phase"] for seg in path][:2] == [
            "offload.enqueue", "offload.execute",
        ]
        assert path[0]["duration_ns"] == 200
        starts = [seg["start_ns"] for seg in path]
        assert starts == sorted(starts)

    def test_critical_path_empty(self):
        assert critical_path([]) == []
        assert critical_path([event("only.events", 5)]) == []

    def test_trace_summary(self):
        records = [
            span("offload.serialize", 0, 100, span_id=1),
            span("offload.execute", 200, 50, span_id=10, parent=1,
                 pid=TARGET_PID),
            event("resilience.retry", 150),
        ]
        summary = trace_summary(records)
        assert summary["trace_id"] == TRACE
        assert summary["spans"] == 2
        assert summary["events"] == 1
        assert summary["pids"] == [HOST_PID, TARGET_PID]
        assert summary["total_ns"] == 250
        assert summary["critical_path"]
