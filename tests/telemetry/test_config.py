"""What ``offload.init(telemetry=...)`` accepts: ``TelemetryConfig.coerce``."""

import pytest

from repro.telemetry.config import TelemetryConfig


class TestTelemetryConfig:
    def test_coerce_bool(self):
        assert TelemetryConfig.coerce(True).enabled is True
        assert TelemetryConfig.coerce(False).enabled is False

    def test_coerce_dict(self):
        config = TelemetryConfig.coerce({"crash_dir": "bundles", "capacity": 16})
        assert config.crash_dir == "bundles"
        assert config.capacity == 16
        assert config.enabled is True

    def test_coerce_passthrough(self):
        config = TelemetryConfig(capacity=8)
        assert TelemetryConfig.coerce(config) is config

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            TelemetryConfig.coerce(42)
        with pytest.raises(TypeError):
            TelemetryConfig.coerce({"bogus_field": 1})
        # Options that went with their subsystems fail the same way.
        for removed in ("metrics_port", "metrics_host", "tsdb",
                        "slo_enabled", "slos"):
            with pytest.raises(TypeError, match=removed):
                TelemetryConfig.coerce({removed: 0})

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 0.5, 0.0])
    def test_coerce_validates_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sampling was removed"):
            TelemetryConfig.coerce({"sample_rate": rate})

    def test_coerce_accepts_boundary_rates(self):
        # Rate 1.0 (and None) record everything, so they are dropped.
        for rate in (1.0, None):
            config = TelemetryConfig.coerce({"sample_rate": rate, "capacity": 8})
            assert config == TelemetryConfig(capacity=8)
