"""Round-trip tests for the trace exporter and the report CLI."""

import json

import pytest

from repro.telemetry.export import (
    dicts_to_records,
    durations_by_name,
    parse_chrome_trace,
    records_to_dicts,
    to_chrome,
    write_chrome_trace,
)
from repro.telemetry.recorder import EventRecord, Recorder, SpanRecord
from repro.telemetry.report import main as report_main, render_report, summarize


def sample_records():
    return [
        SpanRecord(
            name="offload.serialize", category="offload", start_ns=1000,
            duration_ns=500, span_id=1, parent_id=0, pid=10, tid=20,
            attrs={"bytes": 64},
        ),
        SpanRecord(
            name="offload.execute", category="offload", start_ns=1600,
            duration_ns=2000, span_id=2, parent_id=1, pid=11, tid=21,
            attrs={},
        ),
        EventRecord(
            name="fault.injected", category="fault", ts_ns=1700,
            span_id=3, parent_id=2, pid=11, tid=21, attrs={"kind": "drop"},
        ),
    ]


class TestDictRoundTrip:
    def test_round_trip_is_identity(self):
        records = sample_records()
        assert dicts_to_records(records_to_dicts(records)) == records

    def test_rows_are_json_safe(self):
        json.dumps(records_to_dicts(sample_records()))

    def test_unknown_row_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record row"):
            dicts_to_records([{"type": "mystery"}])


class TestChrome:
    def test_round_trip_preserves_shape_and_durations(self):
        records = sample_records()
        back = parse_chrome_trace(to_chrome(records))
        assert len(back) == len(records)
        by_name = {r.name: r for r in back}
        original = {r.name: r for r in records}
        for name, rec in by_name.items():
            ref = original[name]
            assert rec.span_id == ref.span_id
            assert rec.parent_id == ref.parent_id
            assert rec.attrs == ref.attrs
            if rec.kind == "span":
                assert rec.duration_ns == ref.duration_ns

    def test_timestamps_normalized_to_origin(self):
        obj = to_chrome(sample_records())
        assert min(e["ts"] for e in obj["traceEvents"]) == 0.0
        assert obj["metadata"]["origin_ns"] == 1000

    def test_file_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", sample_records())
        back = parse_chrome_trace(path)
        assert [r.name for r in back] == [r.name for r in sample_records()]

    def test_accepts_recorder(self):
        rec = Recorder()
        with rec.span("x"):
            pass
        assert len(to_chrome(rec)["traceEvents"]) == 1

    def test_rejects_non_trace(self):
        with pytest.raises(ValueError, match="traceEvents"):
            parse_chrome_trace({"foo": 1})


class TestReport:
    def test_durations_by_name_groups_spans(self):
        groups = durations_by_name(sample_records(), prefix="offload.")
        assert groups == {
            "offload.serialize": [5e-7],
            "offload.execute": [2e-6],
        }

    def test_summarize_percentiles(self):
        summary = summarize(sample_records())
        assert summary["offload.execute"]["count"] == 1
        assert summary["offload.execute"]["p95"] == pytest.approx(2e-6)

    def test_render_report_lists_phases_and_events(self):
        text = render_report(sample_records())
        assert "offload.serialize" in text
        assert "offload.execute" in text
        assert "fault.injected" in text
        assert "p95" in text

    def test_render_report_empty(self):
        assert "no spans matched" in render_report([])

    def test_cli_main(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", sample_records())
        assert report_main([str(path), "--prefix", "offload."]) == 0
        out = capsys.readouterr().out
        assert "offload.execute" in out

    def test_cli_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a trace\"}")
        with pytest.raises(SystemExit):
            report_main([str(bad)])

    @pytest.mark.parametrize("entry", [
        {"ph": "X", "ts": 1},  # no name
        {"name": "x", "ph": "X", "ts": "1", "dur": 1},  # a string ts
        5,  # not an object
    ], ids=["missing-name", "string-ts", "not-an-object"])
    def test_cli_refuses_a_malformed_entry_in_one_line(
            self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        good = {"name": "ok", "ph": "i", "ts": 0}
        bad.write_text(json.dumps({"traceEvents": [good, entry]}))
        with pytest.raises(SystemExit) as exc:
            report_main([str(bad)])
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("repro-telemetry-report: error: ")
        assert "traceEvents[1]" in error


def traced_records(trace="aa" * 16):
    """Two-process records of one distributed trace."""
    return [
        SpanRecord(
            name="offload.serialize", category="offload", start_ns=1000,
            duration_ns=500, span_id=1, parent_id=0, pid=10, tid=20,
            attrs={}, trace_id=trace,
        ),
        SpanRecord(
            name="offload.execute", category="offload", start_ns=1800,
            duration_ns=700, span_id=2, parent_id=1, pid=11, tid=21,
            attrs={}, trace_id=trace,
        ),
        SpanRecord(
            name="offload.deserialize", category="offload", start_ns=2700,
            duration_ns=200, span_id=3, parent_id=0, pid=10, tid=20,
            attrs={}, trace_id=trace,
        ),
    ]


class TestReportCliModes:
    def test_empty_trace_prints_no_records_and_exits_zero(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "empty.json", [])
        assert report_main([str(path)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_metadata_only_trace_too(self, tmp_path, capsys):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "host"}},
        ]}))
        assert report_main([str(path)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_format_json(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", sample_records())
        assert report_main([str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "offload.serialize" in payload["phases"]
        assert payload["phases"]["offload.execute"]["count"] == 1

    def test_format_json_with_messages(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", traced_records())
        assert report_main([str(path), "--format", "json",
                            "--per-message"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (message,) = payload["messages"]
        assert message["trace_id"] == "aa" * 16
        assert message["spans"] == 3
        phases = [seg["phase"] for seg in message["critical_path"]]
        assert "offload.execute" in phases

    def test_per_message_table(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", traced_records())
        assert report_main([str(path), "--per-message"]) == 0
        out = capsys.readouterr().out
        assert "per-message traces" in out
        assert ("aa" * 16)[:16] in out

    def test_critical_path_table(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", traced_records())
        assert report_main([str(path), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "offload.execute" in out
        assert "(wait)" in out

    def test_untraced_records_yield_helpful_message(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "trace.json", sample_records())
        assert report_main([str(path), "--per-message"]) == 0
        assert "no traced messages" in capsys.readouterr().out
