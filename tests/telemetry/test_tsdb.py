"""Tests for the in-process time-series store, scoreboard and detector."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tsdb import (
    AnomalyDetector,
    Scoreboard,
    SeriesRing,
    TimeSeriesStore,
    Tsdb,
    install_tsdb,
)


class TestSeriesRing:
    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            SeriesRing(1)

    def test_items_oldest_first_before_wrap(self):
        ring = SeriesRing(4)
        for i in range(3):
            ring.append(float(i), float(i * 10))
        assert ring.items() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert len(ring) == 3
        assert ring.last() == (2.0, 20.0)

    def test_items_oldest_first_after_wraparound(self):
        ring = SeriesRing(4)
        for i in range(7):  # overwrite 0..2; retained: 3,4,5,6
            ring.append(float(i), float(i * 10))
        assert len(ring) == 4
        assert ring.items() == [
            (3.0, 30.0), (4.0, 40.0), (5.0, 50.0), (6.0, 60.0)
        ]
        assert ring.last() == (6.0, 60.0)

    def test_since_filter(self):
        ring = SeriesRing(8)
        for i in range(5):
            ring.append(float(i), float(i))
        assert ring.items(since=3.0) == [(3.0, 3.0), (4.0, 4.0)]

    def test_empty(self):
        ring = SeriesRing(4)
        assert ring.items() == []
        assert ring.last() is None
        assert len(ring) == 0


class TestStoreQueries:
    def test_rate_of_steady_counter_ramp(self):
        store = TimeSeriesStore(retention=16)
        # +10/s for 5 samples: 0, 10, 20, 30, 40.
        for i in range(5):
            store.record("offload.issued", i * 10.0, float(i))
        assert store.rate("offload.issued") == pytest.approx(10.0)
        assert store.delta("offload.issued") == pytest.approx(40.0)

    def test_rate_survives_ring_wraparound(self):
        store = TimeSeriesStore(retention=4)
        for i in range(10):  # only the last 4 samples retained
            store.record("c", i * 5.0, float(i))
        assert store.range("c")[0] == (6.0, 30.0)
        assert store.rate("c") == pytest.approx(5.0)

    def test_rate_counter_reset(self):
        store = TimeSeriesStore(retention=8)
        # 0 -> 10 -> 20 -> restart -> 5 -> 15 over 4 s: the post-reset
        # sample counts as an increase from zero, PromQL-style.
        for ts, value in enumerate((0.0, 10.0, 20.0, 5.0, 15.0)):
            store.record("c", value, float(ts))
        # increases: 10 + 10 + 5 + 10 = 35 over 4 s
        assert store.rate("c") == pytest.approx(35.0 / 4.0)

    def test_rate_needs_two_samples(self):
        store = TimeSeriesStore()
        assert store.rate("missing") == 0.0
        store.record("c", 1.0, 0.0)
        assert store.rate("c") == 0.0

    def test_range_window_anchored_at_newest_sample(self):
        store = TimeSeriesStore(retention=16)
        for i in range(10):
            store.record("g", float(i), float(i))
        # Sampler stopped at t=9: a 3 s window still answers.
        assert store.range("g", window=3.0) == [
            (6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)
        ]
        assert store.range("g", window=3.0, now=5.0) == [
            (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)
        ]

    def test_max_series_cap(self):
        store = TimeSeriesStore(retention=4, max_series=2)
        store.record("a", 1.0, 0.0)
        store.record("b", 1.0, 0.0)
        store.record("c", 1.0, 0.0)  # refused
        assert store.names() == ["a", "b"]
        assert store.dropped_series == 1
        store.record("a", 2.0, 1.0)  # existing series still writable
        assert store.latest("a") == 2.0

    def test_to_json_shape(self):
        store = TimeSeriesStore(retention=4)
        store.record("x", 1.0, 100.0)
        store.record("x", 2.0, 101.0)
        dump = store.to_json()
        assert dump == {"x": {"t": [100.0, 101.0], "v": [1.0, 2.0]}}

    def test_observe_snapshot_derives_histogram_series(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc(3)
        reg.gauge("window.in_flight").set(2.0)
        hist = reg.log_histogram("target.reply.1")
        for v in (0.01, 0.02, 0.03):
            hist.observe(v)
        store = TimeSeriesStore()
        store.observe_snapshot(reg.snapshot(), ts=1.0)
        assert store.latest("offload.issued") == 3.0
        assert store.latest("window.in_flight") == 2.0
        assert store.latest("target.reply.1.count") == 3.0
        assert store.latest("target.reply.1.p95") > 0.0


class _FakeBackend:
    """A fan-out of a tcp-like and an shm-like member."""

    def stats(self):
        return {"backend": "fanout", "inner": [
            {"pending_replies": 2, "send_queue_bytes": 100},
            {"pending_replies": 0, "send_queue_bytes": 0,
             "request_ring_used": 256, "ring_capacity": 1024},
        ]}


class _FakeRuntime:
    def __init__(self):
        self.backend = _FakeBackend()


class TestScoreboard:
    def test_refresh_writes_per_target_series(self):
        store = TimeSeriesStore()
        board = Scoreboard(store)
        board.attach_runtime(_FakeRuntime())
        board.refresh(now=1.0)
        assert store.latest("target.in_flight.1") == 2.0
        assert store.latest("target.queue_bytes.1") == 100.0
        assert store.latest("target.ring_fill.2") == 0.25
        # ring_fill absent for node 1 (tcp-style stats have none)
        assert "target.ring_fill.1" not in store.names()

    def test_error_rate_derived_from_errors_counter(self):
        store = TimeSeriesStore()
        board = Scoreboard(store)
        board.attach_runtime(_FakeRuntime())
        # 5 errors in 5 s on target 1 -> ~1/s.
        for ts in range(6):
            store.record("target.errors.1", float(ts), float(ts))
        board.refresh(now=5.0)
        assert store.latest("target.error_rate.1") == pytest.approx(1.0)

    def test_refresh_without_runtime_is_a_noop(self):
        store = TimeSeriesStore()
        Scoreboard(store).refresh(now=1.0)
        assert store.names() == []


def _feed_flat(store, name, value, count=20, start=0.0):
    for i in range(count):
        store.record(name, value, start + float(i))


class TestAnomalyDetector:
    def test_flat_series_never_flags(self):
        store = TimeSeriesStore()
        det = AnomalyDetector(store, window=60.0, min_samples=5)
        _feed_flat(store, "target.in_flight.1", 2.0)
        assert det.evaluate(now=19.0) == []
        assert det.anomalies() == []

    def test_spike_enters_and_recovers_with_hysteresis(self):
        store = TimeSeriesStore()
        events = []
        det = AnomalyDetector(
            store, window=60.0, min_samples=5,
            emit=lambda name, **kw: events.append((name, kw)),
        )
        _feed_flat(store, "target.in_flight.1", 2.0, count=19)
        store.record("target.in_flight.1", 50.0, 19.0)  # the spike
        # First deviant tick only arms the entry (enter_ticks=2).
        assert det.evaluate(now=19.0) == []
        assert det.anomalies() == []
        store.record("target.in_flight.1", 50.0, 20.0)  # it persists
        entered = det.evaluate(now=20.0)
        assert [e["series"] for e in entered] == ["target.in_flight.1"]
        assert det.anomalies()[0]["series"] == "target.in_flight.1"
        assert events[0][0] == "telemetry.anomaly"
        # Back to baseline: score collapses below threshold/2 -> recovery.
        for i in range(21, 40):
            store.record("target.in_flight.1", 2.0, float(i))
        assert det.evaluate(now=39.0) == []
        assert det.anomalies() == []
        assert events[-1][0] == "telemetry.anomaly_recovered"

    def test_single_tick_blip_never_enters(self):
        store = TimeSeriesStore()
        events = []
        det = AnomalyDetector(
            store, window=60.0, min_samples=5,
            emit=lambda name, **kw: events.append((name, kw)),
        )
        _feed_flat(store, "target.in_flight.1", 2.0, count=19)
        store.record("target.in_flight.1", 50.0, 19.0)  # one-tick blip
        assert det.evaluate(now=19.0) == []
        store.record("target.in_flight.1", 2.0, 20.0)  # gone next tick
        assert det.evaluate(now=20.0) == []
        assert det.anomalies() == []
        assert events == []

    def test_idle_zero_baseline_first_sample_does_not_flap(self):
        # An idle target's in_flight/error_rate is constant 0; the first
        # request afterwards must not score ~1e9 and demote the target.
        store = TimeSeriesStore()
        det = AnomalyDetector(store, window=60.0, min_samples=5)
        _feed_flat(store, "target.in_flight.1", 0.0, count=19)
        store.record("target.in_flight.1", 1.0, 19.0)  # traffic resumes
        assert det.evaluate(now=19.0) == []
        assert det.score("target.in_flight.1", now=19.0) is None
        store.record("target.in_flight.1", 1.0, 20.0)
        assert det.evaluate(now=20.0) == []
        assert det.anomalies() == []

    def test_cumulative_series_excluded_from_scoring(self):
        # Monotone counter levels (histogram .count derivatives, raw
        # error counters) always drift off their trailing median under
        # normal traffic; only their rates are anomaly material.
        store = TimeSeriesStore()
        det = AnomalyDetector(store, min_samples=5)
        assert not det.watches("target.reply.1.count")
        assert not det.watches("target.errors.1")
        assert det.watches("target.reply.1.p95")
        assert det.watches("target.error_rate.1")
        # A ramping .count series never flags even across many ticks.
        for tick in range(19):
            store.record("target.reply.1.count", float(tick * 10),
                         float(tick))
        store.record("target.reply.1.count", 400.0, 19.0)
        assert det.evaluate(now=19.0) == []
        assert det.evaluate(now=19.0) == []
        assert det.anomalies() == []

    def test_score_gauges_exported(self):
        store = TimeSeriesStore()
        reg = MetricsRegistry()
        det = AnomalyDetector(store, reg, min_samples=5)
        _feed_flat(store, "target.queue_bytes.2", 10.0)
        det.evaluate(now=19.0)
        snap = reg.snapshot()
        assert "anomaly.score.target.queue_bytes.2" in snap["gauges"]

    def test_anomalous_nodes_parses_target_ids(self):
        store = TimeSeriesStore()
        det = AnomalyDetector(store, min_samples=5)
        _feed_flat(store, "target.reply.3.p95", 0.001, count=19)
        store.record("target.reply.3.p95", 1.0, 19.0)
        det.evaluate(now=19.0)
        store.record("target.reply.3.p95", 1.0, 20.0)
        det.evaluate(now=20.0)
        assert det.anomalous_nodes() == {3}

    def test_non_target_prefixes_ignored_by_default(self):
        store = TimeSeriesStore()
        det = AnomalyDetector(store, min_samples=5)
        _feed_flat(store, "offload.issued", 1.0, count=19)
        store.record("offload.issued", 1e6, 19.0)
        assert det.evaluate(now=19.0) == []


class TestTsdb:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Tsdb(MetricsRegistry(), interval=0.0)

    def test_sample_once_ticks_everything(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc()
        tsdb = Tsdb(reg, interval=1.0)
        tsdb.attach_runtime(_FakeRuntime())
        tsdb.sample_once(now=1.0)
        tsdb.sample_once(now=2.0)
        assert tsdb.samples == 2
        assert tsdb.store.latest("offload.issued") == 1.0
        assert tsdb.store.latest("target.in_flight.1") == 2.0

    def test_thread_lifecycle(self):
        tsdb = Tsdb(MetricsRegistry(), interval=0.01)
        tsdb.start()
        tsdb.start()  # idempotent
        try:
            deadline = 200
            while tsdb.samples == 0 and deadline:
                deadline -= 1
                import time
                time.sleep(0.005)
            assert tsdb.samples > 0
        finally:
            tsdb.stop()
        tsdb.stop()  # idempotent

    def test_stop_clears_active_anomalies(self):
        # A stopped sampler never observes recovery; stale anomalies
        # would demote targets forever in the hedger and /healthz.
        tsdb = Tsdb(MetricsRegistry(), interval=0.01)
        _feed_flat(tsdb.store, "target.in_flight.1", 2.0, count=19)
        tsdb.store.record("target.in_flight.1", 50.0, 19.0)
        tsdb.detector.evaluate(now=19.0)
        tsdb.store.record("target.in_flight.1", 50.0, 20.0)
        tsdb.detector.evaluate(now=20.0)
        assert tsdb.detector.anomalies()
        tsdb.start()
        tsdb.stop()
        assert tsdb.detector.anomalies() == []
        assert tsdb.detector.anomalous_nodes() == set()

    def test_install_tsdb_attaches_but_does_not_start(self):
        from repro.telemetry.recorder import Recorder

        recorder = Recorder()
        tsdb = install_tsdb(recorder)
        assert recorder.tsdb is tsdb
        assert tsdb._thread is None
        assert tsdb.interval == 1.0
        assert tsdb.detector._emit == recorder.force_event


class TestHedgeAdvisory:
    def test_anomalous_candidates_demoted_never_removed(self):
        from repro.offload.hedging import Hedger
        from repro.telemetry import recorder as telemetry

        telemetry.enable()
        recorder = telemetry.get()
        tsdb = install_tsdb(recorder)
        try:
            _feed_flat(tsdb.store, "target.reply.2.p95", 0.001, count=19)
            tsdb.store.record("target.reply.2.p95", 5.0, 19.0)
            tsdb.detector.evaluate(now=19.0)
            tsdb.store.record("target.reply.2.p95", 5.0, 20.0)
            tsdb.detector.evaluate(now=20.0)
            assert tsdb.detector.anomalous_nodes() == {2}
            reordered, avoided = Hedger._prefer_non_anomalous(
                [2, 3, 4])
            assert reordered == [3, 4, 2]
            assert avoided == {2}
            # All-anomalous fleet: order preserved, nothing dropped.
            for node in (3, 4):
                series = f"target.reply.{node}.p95"
                _feed_flat(tsdb.store, series, 0.001, count=19)
                tsdb.store.record(series, 5.0, 19.0)
            tsdb.detector.evaluate(now=19.0)
            for node in (3, 4):
                tsdb.store.record(f"target.reply.{node}.p95", 5.0, 20.0)
            tsdb.detector.evaluate(now=20.0)
            reordered, avoided = Hedger._prefer_non_anomalous(
                [2, 3, 4])
            assert reordered == [2, 3, 4]
            assert avoided == set()
        finally:
            recorder.tsdb = None

    def test_no_tsdb_no_reorder(self):
        from repro.offload.hedging import Hedger

        reordered, avoided = Hedger._prefer_non_anomalous([1, 2])
        assert reordered == [1, 2]
        assert avoided == set()
