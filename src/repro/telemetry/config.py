"""What ``offload.init(telemetry=...)`` accepts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["TelemetryConfig"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry setup for ``offload.init(telemetry=...)``.

    ``init`` accepts ``True`` (plain recording), this class, or a dict
    with the same field names.

    Enabled telemetry records every offload. A dict may still spell
    ``sample_rate`` as ``1.0`` or ``None`` (dropped); any other rate
    raises ``ValueError``: trace sampling was removed.
    """

    enabled: bool = True
    capacity: int = 65536
    #: Flight-recorder crash-bundle directory (see
    #: :mod:`repro.telemetry.flightrecorder`). ``None`` leaves dumping
    #: governed by the ``REPRO_CRASH_DIR`` environment variable.
    crash_dir: str | None = None

    @classmethod
    def coerce(
        cls, value: "bool | Mapping[str, Any] | TelemetryConfig"
    ) -> "TelemetryConfig":
        """Normalize the ``init(telemetry=...)`` argument."""
        if isinstance(value, TelemetryConfig):
            config = value
        elif isinstance(value, bool):
            config = cls(enabled=value)
        elif isinstance(value, Mapping):
            options = dict(value)
            rate = options.pop("sample_rate", None)
            if rate is not None and float(rate) != 1.0:
                raise ValueError(
                    f"sample_rate={rate}: trace sampling was removed; "
                    "telemetry records every offload or none"
                )
            config = cls(**options)
        else:
            raise TypeError(
                "telemetry must be a bool, dict or TelemetryConfig, "
                f"got {type(value).__name__}"
            )
        return config
