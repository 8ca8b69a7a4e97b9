"""``repro.telemetry.report`` on flight-recorder crash bundles.

A directory argument flips the report tool into post-mortem mode.
Contract: a valid bundle renders and exits 0, a truncated events file
is survivable (skipped lines are counted, exit 0), an empty bundle is
a fact not a crash (exit 0), and a directory that is not a bundle is a
usage error (exit 2, argparse convention).
"""

import json

import pytest

from repro.telemetry import flightrecorder
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.flightrecorder import BUNDLE_EVENTS, FlightRecorder
from repro.telemetry.report import main, render_bundle


@pytest.fixture()
def bundle(tmp_path):
    rec = FlightRecorder(capacity=16, crash_dir=tmp_path)
    for i in range(3):
        rec.note("qos.rejected", tenant="noisy", seq=i)
    rec.note("health.transition", node=1, health="down")
    return rec.trigger("node_down", node=1)


class TestRenderBundle:
    def test_renders_manifest_events_and_tail(self, bundle):
        text = render_bundle(flightrecorder.load_bundle(bundle))
        assert "reason=node_down" in text
        assert "events retained 5" in text
        assert "qos.rejected" in text
        assert "last events:" in text
        assert "flight.trigger" in text

    def test_truncation_is_reported(self, bundle):
        with (bundle / BUNDLE_EVENTS).open("a") as fh:
            fh.write('{"cut off')
        text = render_bundle(flightrecorder.load_bundle(bundle))
        assert "1 truncated event line(s) skipped" in text

    def test_empty_bundle_renders_header_only(self, tmp_path):
        rec = FlightRecorder(capacity=16, crash_dir=tmp_path)
        empty = rec.dump("manual")
        (empty / BUNDLE_EVENTS).write_text("")
        loaded = flightrecorder.load_bundle(empty)
        loaded["events"] = []
        text = render_bundle(loaded)
        assert "reason=manual" in text
        assert "no recorded events" in text


class TestMainOnDirectories:
    def test_valid_bundle_exits_zero(self, bundle, capsys):
        assert main([str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "crash bundle: reason=node_down" in out

    def test_truncated_bundle_exits_zero(self, bundle, capsys):
        with (bundle / BUNDLE_EVENTS).open("a") as fh:
            fh.write('{"cut off')
        assert main([str(bundle)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_bundle_without_events_file_exits_zero(self, bundle, capsys):
        (bundle / BUNDLE_EVENTS).unlink()
        assert main([str(bundle)]) == 0
        assert "no recorded events" in capsys.readouterr().out

    def test_non_bundle_directory_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path)])
        assert exc.value.code == 2
        assert "not a crash bundle" in capsys.readouterr().err

    def test_json_format_emits_the_loaded_bundle(self, bundle, capsys):
        assert main([str(bundle), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["reason"] == "node_down"
        assert [e["name"] for e in payload["events"]][-1] == "flight.trigger"

    def test_plain_file_still_goes_through_trace_path(self, tmp_path, capsys):
        trace = write_chrome_trace(tmp_path / "empty.json", [])
        assert main([str(trace)]) == 0
        assert "no records" in capsys.readouterr().out
