"""What ``offload.init(telemetry=...)`` accepts.

A module of its own so that selecting telemetry loads only what the
options select: the exporter (:mod:`repro.telemetry.promexport`, which
imports ``http.server``) comes in with a ``metrics_port``, not with
``telemetry=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

__all__ = ["TelemetryConfig"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry setup for ``offload.init(telemetry=...)``.

    ``init`` accepts ``True`` (plain recording), this class, or a dict
    with the same field names. ``metrics_port=None`` means no HTTP
    endpoint; ``0`` binds an ephemeral port (read the actual one from
    ``repro.offload.api.metrics_server().address``).

    Sampling and SLO fields (see :mod:`repro.telemetry.sampling` and
    :mod:`repro.telemetry.slo`): ``sample_rate=None`` or ``1.0``
    records every trace; a float in ``[0, 1)`` installs a head sampler
    plus the tail-retention pipeline.
    ``slos=None`` with ``slo_enabled=True`` uses
    :func:`repro.telemetry.slo.default_slos`; pass a tuple of
    :class:`~repro.telemetry.slo.SLO` (or dicts of their fields) to
    override.
    """

    enabled: bool = True
    capacity: int = 65536
    metrics_port: int | None = None
    metrics_host: str = "127.0.0.1"
    #: Head-sampling probability; None or 1.0 records every trace.
    sample_rate: float | None = None
    #: Tail retention: completions before the p99 threshold is trusted.
    tail_min_samples: int = 20
    #: SLO burn-rate monitoring.
    slo_enabled: bool = True
    slos: tuple = ()
    #: Flight-recorder crash-bundle directory (see
    #: :mod:`repro.telemetry.flightrecorder`). ``None`` leaves dumping
    #: governed by the ``REPRO_CRASH_DIR`` environment variable.
    crash_dir: str | None = None
    #: In-process time-series store (:mod:`repro.telemetry.tsdb`).
    #: ``False`` keeps history off (no sampler thread exists); ``True``
    #: installs the 1 s sampler.
    tsdb: bool = False

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
            config = cls(**value)
        else:
            raise TypeError(
                "telemetry must be a bool, dict or TelemetryConfig, "
                f"got {type(value).__name__}"
            )
        if config.sample_rate is not None and not (
            0.0 <= float(config.sample_rate) <= 1.0
        ):
            raise ValueError(
                f"sample_rate must be in [0, 1], got {config.sample_rate}"
            )
        if config.slos:
            from repro.telemetry.slo import SLO

            normalized = tuple(
                s if isinstance(s, SLO) else SLO(**dict(s))
                for s in config.slos
            )
            config = replace(config, slos=normalized)
        return config
