"""Tests for clock alignment and critical paths."""

import pytest

from repro.telemetry.distributed import (
    ClockSync,
    align_records,
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


class TestClockSync:
    def test_estimate_recovers_known_offset(self):
        # Target clock runs 1000 ns ahead; symmetric 100 ns one-way trip.
        host = iter(range(0, 10_000, 1000))

        def probe():
            t0 = next(host)
            return t0, t0 + 100 + 1000, t0 + 200

        sync = ClockSync.estimate(probe, rounds=4)
        assert sync.offset_ns == -1000
        assert sync.rtt_ns == 200
        assert sync.samples == 4

    def test_estimate_prefers_min_rtt_round(self):
        rounds = iter([
            (0, 5000, 10_000),   # rtt 10000, noisy
            (100, 1350, 500),    # rtt 400, tight: offset = 300 - 1350
            (600, 9000, 5000),   # rtt 4400
        ])
        sync = ClockSync.estimate(lambda: next(rounds), rounds=3)
        assert sync.rtt_ns == 400
        assert sync.offset_ns == 300 - 1350

    def test_estimate_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            ClockSync.estimate(lambda: (100, 0, 50), rounds=1)
        with pytest.raises(ValueError):
            ClockSync.estimate(lambda: (0, 0, 0), rounds=0)

    def test_identity(self):
        sync = ClockSync.identity()
        assert sync.offset_ns == 0 and sync.samples == 0


class TestAlignment:
    def test_align_shifts_spans_and_events(self):
        records = [span("a", 1000, 10), event("e", 2000)]
        shifted = align_records(records, -500)
        assert shifted[0].start_ns == 500
        assert shifted[0].duration_ns == 10
        assert shifted[1].ts_ns == 1500

    def test_align_zero_offset_is_identity(self):
        records = [span("a", 1000, 10)]
        assert align_records(records, 0) == records


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
