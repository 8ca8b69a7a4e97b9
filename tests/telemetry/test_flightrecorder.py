"""Flight recorder: bounded ring, crash bundles, offline reading.

The recorder is a module-global singleton armed at import; tests here
mostly exercise fresh :class:`FlightRecorder` instances, and the ones
that touch the global (``configure``) restore its state afterwards.
"""

import json

import pytest

from repro.telemetry import flightrecorder
from repro.telemetry.flightrecorder import (
    BUNDLE_EVENTS,
    BUNDLE_MANIFEST,
    BUNDLE_STATE,
    FlightRecorder,
)


@pytest.fixture(autouse=True)
def _restore_global():
    """Tests must not leave the process-global recorder armed."""
    flight = flightrecorder.get()
    saved = (flight.crash_dir, flight.capacity, flight.debounce)
    yield
    flight.crash_dir, _, flight.debounce = saved
    flight.enabled = True


class TestRing:
    def test_note_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.note("tick", i=i)
        assert len(rec.records()) == 4
        assert rec.noted == 10
        assert rec.dropped == 6
        # Lossy toward the *old* end: recency is the point.
        assert [attrs["i"] for *_, attrs in rec.records()] == [6, 7, 8, 9]
        assert {category for _, _, category, _ in rec.records()} == {"flight"}

    def test_disabled_recorder_notes_nothing(self):
        rec = FlightRecorder(capacity=4)
        rec.enabled = False
        rec.note("tick")
        assert rec.records() == []
        assert rec.noted == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_keeps_counters(self):
        rec = FlightRecorder(capacity=4)
        rec.note("tick")
        rec.clear()
        assert rec.records() == []
        assert rec.noted == 1


class TestTriggerAndDump:
    def test_trigger_without_crash_dir_notes_but_never_writes(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=None)
        rec.crash_dir = None  # defeat any REPRO_CRASH_DIR in the env
        assert rec.trigger("boom") is None
        assert rec.records()[-1][1] == "flight.trigger"
        assert rec.dumps == []

    def test_trigger_writes_a_complete_bundle(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path)
        rec.note("qos.rejected", tenant="noisy")
        bundle = rec.trigger("node_down", node=3)
        assert bundle is not None and bundle.is_dir()
        assert "node_down" in bundle.name
        manifest = json.loads((bundle / BUNDLE_MANIFEST).read_text())
        assert manifest["reason"] == "node_down"
        assert manifest["attrs"] == {"node": "3"}
        assert manifest["events"] == 2  # the rejection + the trigger itself
        rows = [
            json.loads(line)
            for line in (bundle / BUNDLE_EVENTS).read_text().splitlines()
        ]
        assert rows[0]["name"] == "qos.rejected"
        assert rows[0]["attrs"] == {"tenant": "noisy"}
        assert rows[-1]["name"] == "flight.trigger"
        # The exporter's one row shape, readable as a trace file too.
        assert rows[0]["type"] == "event" and rows[0]["cat"] == "flight"
        assert {p.name for p in bundle.iterdir()} == {
            BUNDLE_MANIFEST, BUNDLE_EVENTS, BUNDLE_STATE,
        }

    def test_reason_is_sanitized_into_the_directory_name(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path)
        bundle = rec.trigger("weird/../reason !")
        assert bundle is not None
        assert "/" not in bundle.name.replace(str(tmp_path), "")
        assert ".." not in bundle.name

    def test_debounce_coalesces_and_force_bypasses(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path, debounce=60.0)
        first = rec.trigger("boom")
        assert first is not None
        assert rec.trigger("boom") is None  # inside the window
        forced = rec.trigger("sigusr2", force=True)
        assert forced is not None and forced != first
        # The coalesced trigger is accounted in the forced manifest.
        manifest = json.loads((forced / BUNDLE_MANIFEST).read_text())
        assert manifest["suppressed_triggers"] == 1

    def test_dumps_property_lists_bundles_oldest_first(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path, debounce=0.0)
        a = rec.trigger("one")
        b = rec.trigger("two")
        assert rec.dumps == [a, b]


class TestOfflineReading:
    def _bundle(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path)
        rec.note("health.transition", node=1, health="suspect")
        return rec.trigger("peer_death")

    def test_load_bundle_round_trips(self, tmp_path):
        bundle = self._bundle(tmp_path)
        loaded = flightrecorder.load_bundle(bundle)
        assert loaded["manifest"]["reason"] == "peer_death"
        assert [e["name"] for e in loaded["events"]] == [
            "health.transition", "flight.trigger",
        ]
        assert loaded["skipped_lines"] == 0

    def test_truncated_events_are_skipped_not_fatal(self, tmp_path):
        bundle = self._bundle(tmp_path)
        with (bundle / BUNDLE_EVENTS).open("a") as fh:
            fh.write('{"name": "half-written')
        loaded = flightrecorder.load_bundle(bundle)
        assert loaded["skipped_lines"] == 1
        assert len(loaded["events"]) == 2

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "notabundle").mkdir()
        with pytest.raises(ValueError, match="not a crash bundle"):
            flightrecorder.load_bundle(tmp_path / "notabundle")

    def test_unparseable_manifest_raises(self, tmp_path):
        bundle = self._bundle(tmp_path)
        (bundle / BUNDLE_MANIFEST).write_text("{broken")
        with pytest.raises(ValueError, match="unparseable manifest"):
            flightrecorder.load_bundle(bundle)

    def test_another_schema_version_is_refused_by_name(self, tmp_path):
        bundle = self._bundle(tmp_path)
        manifest = json.loads((bundle / BUNDLE_MANIFEST).read_text())
        assert manifest["schema_version"] == 2
        manifest["schema_version"] = 1
        (bundle / BUNDLE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema version 1"):
            flightrecorder.load_bundle(bundle)

    def test_truncated_state_keeps_the_events(self, tmp_path):
        bundle = self._bundle(tmp_path)
        (bundle / BUNDLE_STATE).write_text('[{"window": {"in_fl')
        loaded = flightrecorder.load_bundle(bundle)
        assert loaded["state"] is None
        assert len(loaded["events"]) == 2

    def test_find_bundles_ignores_non_bundles(self, tmp_path):
        bundle = self._bundle(tmp_path)
        (tmp_path / "junk").mkdir()
        (tmp_path / "loose-file").write_text("x")
        assert flightrecorder.find_bundles(tmp_path) == [bundle]
        assert flightrecorder.find_bundles(tmp_path / "missing") == []


class TestConfigure:
    def test_configure_arms_the_global_recorder(self, tmp_path):
        flight = flightrecorder.configure(
            tmp_path, debounce=0.0, install_signal=False
        )
        assert flight is flightrecorder.get()
        flightrecorder.note("tick")
        bundle = flightrecorder.trigger("boom")
        assert bundle is not None and bundle.parent == tmp_path

    def test_configure_resizes_preserving_recent(self, tmp_path):
        flight = flightrecorder.get()
        original = flight.capacity
        try:
            flight.clear()
            for i in range(6):
                flight.note("tick", i=i)
            flightrecorder.configure(capacity=3, install_signal=False)
            assert flight.capacity == 3
            assert [a["i"] for *_, a in flight.records()] == [3, 4, 5]
        finally:
            flightrecorder.configure(capacity=original, install_signal=False)


class TestIncident:
    """An alert-state transition (here: the SLO monitor's) is the forced
    event plus, entering the bad state only, the trigger."""

    @pytest.fixture
    def monitor(self, tmp_path):
        from repro.telemetry import recorder as telemetry
        from repro.telemetry.slo import SLO, SLOMonitor

        flight = flightrecorder.get()
        flight.crash_dir = tmp_path
        flight.debounce = 0.0
        flight.clear()
        recorder = telemetry.enable()
        try:
            yield SLOMonitor(
                [SLO("lat", threshold_ns=1000, objective=0.9)],
                fast_window=10, slow_window=10, min_samples=5,
                emit=recorder.force_event,
            )
        finally:
            telemetry.disable()

    def test_entry_notes_and_dumps(self, monitor):
        flight = flightrecorder.get()
        before = list(flight.dumps)
        for _ in range(5):
            monitor.observe(5000)
        [bundle] = flight.dumps[len(before):]
        assert "slo_breach" in bundle.name
        names = [name for _, name, _, _ in flight.records()]
        assert names == ["telemetry.slo_breach", "flight.trigger"]
        manifest = json.loads((bundle / BUNDLE_MANIFEST).read_text())
        assert manifest["attrs"]["slo"] == "lat"

    def test_recovery_notes_without_dumping(self, monitor):
        flight = flightrecorder.get()
        for _ in range(5):
            monitor.observe(5000)
        dumped = list(flight.dumps)
        for _ in range(15):
            monitor.observe(10)
        assert flight.records()[-1][1] == "telemetry.slo_recovered"
        assert flight.dumps == dumped


class TestTransportSnapshot:
    """``state.json`` is what each attached runtime says of itself —
    the recorder looks for nothing in it."""

    class _Runtime:
        def __init__(self, stats):
            self._stats = stats

        def stats(self):
            return dict(self._stats)

    def test_state_json_carries_transport_stats(self, tmp_path):
        rec = FlightRecorder(capacity=8, crash_dir=tmp_path)
        stats = {
            "window": {"in_flight": 2, "limit": 8, "handles": []},
            "backend": {
                "backend": "tcp",
                "reactor": {"max_lag_us": 120, "loops": 42},
                "batch": {"flush_reasons": {"deadline": 3, "full": 1}},
            },
        }
        runtime = self._Runtime(stats)  # held: the recorder only weak-refs it
        rec.attach(runtime)
        bundle = rec.dump("boom")
        assert not (bundle / "metrics.json").exists()  # telemetry is off
        [entry] = json.loads((bundle / BUNDLE_STATE).read_text())
        assert entry == stats
        manifest = json.loads((bundle / BUNDLE_MANIFEST).read_text())
        assert manifest["pending"] == 2

    def test_a_runtime_that_cannot_answer_leaves_its_error(self, tmp_path):
        class _Broken:
            def stats(self):
                raise RuntimeError("backend gone")

        rec = FlightRecorder(capacity=8, crash_dir=tmp_path)
        runtime = _Broken()
        rec.attach(runtime)
        bundle = rec.dump("boom")
        assert json.loads((bundle / BUNDLE_STATE).read_text()) == [
            {"error": "RuntimeError: backend gone"}
        ]


class TestRuntimeIntegration:
    def test_runtime_attach_fills_inflight_and_config(self, tmp_path):
        from repro.backends import LocalBackend
        from repro.offload import ResiliencePolicy, Runtime

        from tests import apps  # noqa: F401 - registers the catalog

        runtime = Runtime(LocalBackend(), policy=ResiliencePolicy(deadline=2.0))
        try:
            rec = flightrecorder.get()
            rec.crash_dir = tmp_path
            bundle = rec.dump("manual")
            [entry] = flightrecorder.load_bundle(bundle)["state"]
            assert entry["backend"]["backend"] == "local"
            assert entry["window"] == {
                "in_flight": 0, "limit": runtime.window.limit, "handles": [],
            }
            assert entry["policy"]["deadline"] == 2.0
        finally:
            runtime.shutdown()

    def test_clean_shutdown_detaches(self):
        from repro.backends import LocalBackend
        from repro.offload import Runtime

        runtime = Runtime(LocalBackend())
        flight = flightrecorder.get()
        runtime.shutdown()
        assert runtime not in flight._runtimes
