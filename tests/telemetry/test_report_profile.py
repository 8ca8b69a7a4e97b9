"""Edge cases of ``report.py``: --profile, mixed headers, JSON output."""

import json

import pytest

from repro.telemetry.export import write_chrome_trace
from repro.telemetry.recorder import EventRecord, SpanRecord
from repro.telemetry.report import main as report_main
from repro.telemetry.report import profile_from_records


def traced_span(trace_id, name, start_ns, duration_ns, span_id, **attrs):
    return SpanRecord(
        name=name, category="offload", start_ns=start_ns,
        duration_ns=duration_ns, span_id=span_id, parent_id=0,
        pid=10, tid=20, attrs=attrs, trace_id=trace_id,
    )


def offload_trace(trace_id="aa" * 16, functor="apps.add", nbytes=64,
                  error=False):
    execute_attrs = {"error": "ValueError"} if error else {}
    return [
        traced_span(trace_id, "offload.serialize", 1000, 500, 1,
                    functor=functor, bytes=nbytes),
        traced_span(trace_id, "offload.execute", 1600, 2000, 2,
                    **execute_attrs),
    ]


class TestProfileCli:
    def test_profile_on_empty_trace_exits_zero(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "empty.json", [])
        assert report_main([str(path), "--profile"]) == 0
        assert capsys.readouterr().out.strip() == "no records"

    def test_profile_table_lists_kernels(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", offload_trace())
        assert report_main([str(path), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "apps.add" in out
        assert "kernel" in out

    def test_profile_sort_tail_accepted(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", offload_trace())
        assert report_main(
            [str(path), "--profile", "--profile-sort", "tail"]
        ) == 0
        assert "apps.add" in capsys.readouterr().out

    def test_mixed_v1_v2_records_do_not_crash(self, tmp_path, capsys):
        # v1-era records carry no trace_id; a trace mixing both eras must
        # flow through every view, with the untraced half simply absent
        # from per-trace groupings.
        legacy = [
            SpanRecord(name="offload.serialize", category="offload",
                       start_ns=100, duration_ns=50, span_id=9,
                       parent_id=0, pid=1, tid=1),
            EventRecord(name="fault.injected", category="fault", ts_ns=120,
                        span_id=10, parent_id=9, pid=1, tid=1),
        ]
        path = write_chrome_trace(tmp_path / "mixed.json",
                                  legacy + offload_trace())
        for view in ("--profile", "--per-message", "--critical-path"):
            assert report_main([str(path), view]) == 0
        out = capsys.readouterr().out
        assert "apps.add" in out

    def test_chrome_format_also_accepted(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", offload_trace())
        assert report_main([str(path), "--profile"]) == 0
        assert "apps.add" in capsys.readouterr().out


class TestJsonRoundTrip:
    def test_json_payload_from_merged_trace(self, tmp_path, capsys):
        # Host half + the target's execute, reported as JSON: the
        # payload must parse and carry all views.
        trace_id = "bb" * 16
        host = [
            traced_span(trace_id, "offload.serialize", 1000, 500, 1,
                        functor="apps.add", bytes=64),
            traced_span(trace_id, "offload.wait", 1600, 4000, 2),
        ]
        target = [
            traced_span(trace_id, "offload.execute", 3000, 2000, 3),
        ]
        merged = host + target
        path = write_chrome_trace(tmp_path / "merged.json", merged)
        assert report_main(
            [str(path), "--profile", "--per-message", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"phases", "messages", "profile"}
        assert payload["profile"]["apps.add"]["count"] == 1
        phases = payload["profile"]["apps.add"]["phases"]
        assert "offload.execute" in phases
        (message,) = payload["messages"]
        assert message["trace_id"] == trace_id

    def test_json_on_plain_trace_parses(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", offload_trace())
        assert report_main([str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "phases" in payload


class TestProfileFromRecords:
    def test_kernel_from_serialize_functor(self):
        snapshot = profile_from_records(offload_trace(functor="apps.mul"))
        (name,) = snapshot
        assert name == "apps.mul"
        assert snapshot[name]["bytes"] == 64
        assert snapshot[name]["errors"] == 0

    def test_error_attr_marks_the_offload(self):
        snapshot = profile_from_records(offload_trace(error=True))
        assert snapshot["apps.add"]["errors"] == 1

    def test_handler_fallback_then_unknown(self):
        trace_id = "cc" * 16
        handler_only = [
            traced_span(trace_id, "offload.execute", 100, 50, 1,
                        handler="HandlerKernel"),
        ]
        anonymous = [
            traced_span("dd" * 16, "offload.wait", 100, 50, 2),
        ]
        snapshot = profile_from_records(handler_only + anonymous)
        assert set(snapshot) == {"HandlerKernel", "<unknown>"}

    def test_untraced_records_contribute_nothing(self):
        legacy = SpanRecord(
            name="offload.execute", category="offload", start_ns=1,
            duration_ns=1, span_id=1, parent_id=0, pid=1, tid=1,
        )
        assert profile_from_records([legacy]) == {}

    def test_round_trip_is_trace_wall_extent(self):
        snapshot = profile_from_records(offload_trace())
        total = snapshot["apps.add"]["phases"]["offload"]
        # serialize starts at 1000, execute ends at 3600 -> 2600 ns.
        assert total["count"] == 1
        assert total["mean"] * 1e9 == pytest.approx(2600, rel=1e-6)
