"""Tests for the Prometheus text exporter and the /metrics endpoint."""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.promexport import (
    MetricsServer,
    TelemetryConfig,
    sanitize_metric_name,
    to_prometheus,
)


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("offload.sync.time") == \
            "repro_offload_sync_time"

    def test_invalid_chars_and_leading_digit(self):
        assert sanitize_metric_name("4dma-rate") == "repro__4dma_rate"

    def test_custom_prefix(self):
        assert sanitize_metric_name("x", prefix="app_") == "app_x"


class TestToPrometheus:
    @pytest.fixture()
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc(5)
        reg.gauge("health.node_state.1").set(1.5)
        hist = reg.log_histogram("phase.offload.execute")
        for value in (0.010, 0.020, 0.030):
            hist.observe(value)
        return reg

    def test_counter_rendering(self, registry):
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_offload_issued_total counter" in text
        assert "repro_offload_issued_total 5" in text

    def test_gauge_rendering(self, registry):
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_health_node_state_1 gauge" in text
        assert "repro_health_node_state_1 1.5" in text

    def test_help_and_unit_come_from_the_signal_table(self, registry):
        text = to_prometheus(registry.snapshot())
        assert ("# HELP repro_offload_issued_total invocations posted to a "
                "backend (offload.issued)") in text
        assert "# UNIT repro_offload_issued_total offloads" in text
        assert "# UNIT repro_phase_offload_execute seconds" in text
        # An OpenMetrics parser wants the unit as the family's suffix.
        assert "# UNIT" not in to_prometheus(
            registry.snapshot(), openmetrics=True)
        # A snapshot of some other registry still renders.
        other = to_prometheus({"counters": {"live": 1}})
        assert "# HELP repro_live_total Counter live" in other
        assert "# UNIT" not in other

    def test_empty_snapshot(self):
        text = to_prometheus({"counters": {}, "gauges": {}, "histograms": {}})
        assert text == "\n"

    def test_ends_with_newline(self, registry):
        assert to_prometheus(registry.snapshot()).endswith("\n")


class TestHistogramBuckets:
    """Log histograms render as *native* Prometheus histogram series."""

    @pytest.fixture()
    def registry(self):
        reg = MetricsRegistry()
        hist = reg.log_histogram(
            "phase.offload.offload", bounds=(0.001, 0.01, 0.1)
        )
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        return reg

    def test_histogram_type_and_bucket_lines(self, registry):
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_phase_offload_offload histogram" in text
        assert 'repro_phase_offload_offload_bucket{le="0.001"} 1' in text
        assert 'repro_phase_offload_offload_bucket{le="0.01"} 2' in text
        assert 'repro_phase_offload_offload_bucket{le="0.1"} 3' in text
        assert 'repro_phase_offload_offload_bucket{le="+Inf"} 4' in text

    def test_sum_and_count(self, registry):
        lines = to_prometheus(registry.snapshot()).splitlines()
        sum_line = next(
            line for line in lines
            if line.startswith("repro_phase_offload_offload_sum")
        )
        assert float(sum_line.split()[1]) == pytest.approx(5.0555)
        assert "repro_phase_offload_offload_count 4" in lines

    def test_inf_bucket_synthesized_when_missing(self):
        # Hand-built snapshots (e.g. merged from JSON) may lack the +Inf
        # bucket; the exposition format requires it.
        snapshot = {
            "counters": {}, "gauges": {},
            "histograms": {
                "h": {"count": 2, "mean": 1.0, "buckets": [[0.5, 1]]}
            },
        }
        text = to_prometheus(snapshot)
        assert 'repro_h_bucket{le="+Inf"} 2' in text


class TestExpositionGrammar:
    """Every line of the full dump obeys the 0.0.4 text format."""

    _COMMENT = re.compile(r"^# (HELP|TYPE|UNIT) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
    _SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                 # metric name
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})?'     # optional one label
        r" (NaN|[+-]Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
    )

    def test_full_dump_parses(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc(3)
        reg.gauge("slo.lat.fast_burn").set(2.5)
        log = reg.log_histogram("phase.offload.offload")
        for value in (0.001, 0.2, 40.0):
            log.observe(value)
        text = to_prometheus(reg.snapshot())
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            assert self._COMMENT.match(line) or self._SAMPLE.match(line), (
                f"line violates exposition grammar: {line!r}"
            )

    def test_type_declared_before_samples(self):
        reg = MetricsRegistry()
        reg.log_histogram("h").observe(1.0)
        lines = to_prometheus(reg.snapshot()).rstrip("\n").splitlines()
        type_at = next(i for i, line in enumerate(lines)
                       if line.startswith("# TYPE repro_h "))
        first_sample = next(i for i, line in enumerate(lines)
                            if line.startswith("repro_h_bucket"))
        assert type_at < first_sample


class TestTelemetryConfig:
    def test_coerce_bool(self):
        assert TelemetryConfig.coerce(True).enabled is True
        assert TelemetryConfig.coerce(False).enabled is False

    def test_coerce_dict(self):
        config = TelemetryConfig.coerce({"metrics_port": 9100, "capacity": 16})
        assert config.metrics_port == 9100
        assert config.capacity == 16
        assert config.enabled is True

    def test_coerce_passthrough(self):
        config = TelemetryConfig(metrics_port=0)
        assert TelemetryConfig.coerce(config) is config

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            TelemetryConfig.coerce(42)
        with pytest.raises(TypeError):
            TelemetryConfig.coerce({"bogus_field": 1})

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 0.5, 0.0])
    def test_coerce_validates_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sampling was removed"):
            TelemetryConfig.coerce({"sample_rate": rate})

    def test_coerce_accepts_boundary_rates(self):
        # Rate 1.0 (and None) record everything, so they are dropped.
        for rate in (1.0, None):
            config = TelemetryConfig.coerce({"sample_rate": rate, "capacity": 8})
            assert config == TelemetryConfig(capacity=8)

    def test_coerce_normalizes_slo_dicts(self):
        from repro.telemetry.slo import SLO

        config = TelemetryConfig.coerce({
            "slos": (
                {"name": "lat", "threshold_ns": 10**6, "objective": 0.99},
                SLO(name="avail", threshold_ns=None, objective=0.999),
            ),
        })
        assert all(isinstance(s, SLO) for s in config.slos)
        assert [s.name for s in config.slos] == ["lat", "avail"]

    def test_coerce_propagates_bad_slo_fields(self):
        with pytest.raises(ValueError, match="objective"):
            TelemetryConfig.coerce({
                "slos": ({"name": "x", "threshold_ns": 1, "objective": 2.0},),
            })


class TestMetricsServer:
    @pytest.fixture()
    def server(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc(2)
        srv = MetricsServer(reg.snapshot)
        yield srv
        srv.close()

    def test_serves_metrics(self, server):
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as rsp:
            assert rsp.status == 200
            assert "version=0.0.4" in rsp.headers["Content-Type"]
            body = rsp.read().decode()
        assert "repro_offload_issued_total 2" in body

    def test_serves_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as rsp:
            assert json.load(rsp) == {"status": "ok"}

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope", timeout=5)
        assert err.value.code == 404

    def test_ephemeral_port_resolved(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_healthz_reflects_health_fn(self):
        health = {"status": "ok", "breached": []}
        reg = MetricsRegistry()
        srv = MetricsServer(reg.snapshot, health_fn=lambda: health)
        try:
            with urllib.request.urlopen(srv.url + "/healthz", timeout=5) as rsp:
                assert json.load(rsp) == {"status": "ok", "breached": []}
            # A later breach must show on the next probe, no restart.
            health["status"] = "degraded"
            health["breached"] = ["offload-latency"]
            with urllib.request.urlopen(srv.url + "/healthz", timeout=5) as rsp:
                body = json.load(rsp)
            assert body["status"] == "degraded"
            assert body["breached"] == ["offload-latency"]
        finally:
            srv.close()

    def test_scrape_sees_live_updates(self):
        reg = MetricsRegistry()
        srv = MetricsServer(reg.snapshot)
        try:
            reg.counter("live").inc()
            body = urllib.request.urlopen(
                srv.url + "/metrics", timeout=5).read().decode()
            assert "repro_live_total 1" in body
            reg.counter("live").inc(9)
            body = urllib.request.urlopen(
                srv.url + "/metrics", timeout=5).read().decode()
            assert "repro_live_total 10" in body
        finally:
            srv.close()
