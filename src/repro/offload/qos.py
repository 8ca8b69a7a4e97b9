"""QoS layer: tenants and their rate limits.

The in-flight window (the runtime's
:class:`~repro.backends.base.InflightWindow`, first come, first served)
bounds *how much* work is in flight; this module decides *whose* work
gets in at all.

* A tenant is a non-empty ``str``. Applications name it per call
  (``tenant=``) or ambiently (:func:`tenant_scope`); the runtime reads
  it once per offload and hands it to admission as an argument —
  backends never see it.
* :class:`AdmissionController` fast-fails work *before serialization*:
  a per-tenant token bucket enforces the tenant's rate limit. A rejected
  request raises :class:`~repro.errors.RateLimitedError` in microseconds
  instead of burning a window slot; it never made a round trip, so it is
  counted here (``rejected``, the ``qos.rejected`` event) and by no SLO.

The layer is opt-in: with ``Runtime(backend, qos=QoSConfig(...))`` (or
``offload.init(backend, qos=...)``) every offload passes admission,
whatever transport, proxy or composition ``backend`` is; without a
config the runtime behaves exactly as before.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import OffloadError, RateLimitedError
from repro.telemetry import recorder as telemetry

__all__ = [
    "AdmissionController",
    "QoSConfig",
    "TenantPolicy",
    "TokenBucket",
    "current_tenant",
    "tenant_scope",
]

#: Tenant id of a QoS runtime's offload that names none.
DEFAULT_TENANT_ID = "default"

#: The ambient tenant of the current thread/task (what an application
#: sets with :func:`tenant_scope`; the runtime reads it once per offload).
_CURRENT_TENANT: contextvars.ContextVar[str | None] = (
    contextvars.ContextVar("repro_tenant", default=None)
)


def current_tenant() -> str | None:
    """The ambient tenant id, or ``None`` outside a scope."""
    return _CURRENT_TENANT.get()


class tenant_scope:  # lower case: it is used like a function
    """Make ``tenant`` the ambient tenant for the duration of the block."""

    __slots__ = ("_tenant", "_token")

    def __init__(self, tenant: str | None) -> None:
        self._tenant = tenant

    def __enter__(self) -> None:
        self._token = _CURRENT_TENANT.set(self._tenant)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        _CURRENT_TENANT.reset(self._token)


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant configuration inside a :class:`QoSConfig`.

    ``rate``/``burst`` configure the tenant's token bucket in invokes
    per second / invokes; ``None`` rate disables rate limiting for the
    tenant.
    """

    rate: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise OffloadError(f"rate must be positive, got {self.rate}")
        if self.burst is not None and self.burst <= 0:
            raise OffloadError(f"burst must be positive, got {self.burst}")


@dataclass(frozen=True)
class QoSConfig:
    """Declarative QoS setup for ``Runtime(qos=...)`` / ``offload.init``.

    Parameters
    ----------
    tenants:
        Known tenants and their policies; unknown tenant ids fall back
        to ``default_policy``.
    default_policy:
        Policy applied to tenants not listed in ``tenants``.
    """

    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The effective :class:`TenantPolicy` of ``tenant``."""
        return self.tenants.get(tenant, self.default_policy)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s up to ``burst`` capacity.

    Thread-safe; the clock is injectable so tests replay exactly.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise OffloadError(
                f"token bucket needs positive rate/burst, got {rate}/{burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        now = self._clock()
        with self._lock:
            return self._take(now, tokens)

    @property
    def available(self) -> float:
        """Tokens currently available (refreshes the bucket)."""
        now = self._clock()
        with self._lock:
            return self._refill(now)

    def _refill(self, now: float) -> float:
        """Add the tokens earned until ``now``; the caller holds the lock
        that guards this bucket."""
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        return self._tokens

    def _take(self, now: float, tokens: float = 1.0) -> bool:
        """:meth:`try_acquire` under the caller's lock."""
        if self._refill(now) >= tokens:
            self._tokens -= tokens
            return True
        return False


#: :meth:`AdmissionController.admit`'s "no bucket made yet".
_UNSEEN: Any = object()


class AdmissionController:
    """Fast-fail gate run before an offload is serialized: the tenant's
    token bucket. Raises :class:`~repro.errors.RateLimitedError` on
    refusal; counts both outcomes per tenant.
    """

    def __init__(
        self,
        config: QoSConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket | None] = {}
        self._admitted: dict[str, int] = {}
        self._rejected: dict[str, int] = {}

    def _new_bucket(self, tenant: str) -> TokenBucket | None:
        """The tenant's bucket, made on first sight; under ``_lock``."""
        policy = self.config.policy_for(tenant)
        if policy.rate is None:
            bucket = None
        else:
            burst = policy.burst if policy.burst is not None else max(1.0, policy.rate)
            bucket = TokenBucket(policy.rate, burst, clock=self._clock)
        self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, kernel: str) -> None:
        """Admit one invoke of ``kernel`` for ``tenant`` or raise
        :class:`~repro.errors.RateLimitedError` (its bucket is empty).
        One lock guards the buckets, their tokens and both counts."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant, _UNSEEN)
            if bucket is _UNSEEN:
                bucket = self._new_bucket(tenant)
            if bucket is None or bucket._take(now):
                self._admitted[tenant] = self._admitted.get(tenant, 0) + 1
                return
            self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
        telemetry.event(
            "qos.rejected", category="qos", tenant=tenant, kernel=kernel,
        )
        raise RateLimitedError(
            f"tenant {tenant!r} over its rate limit "
            f"({bucket.rate:g}/s, burst {bucket.burst:g})"
        )

    def snapshot(self) -> dict[str, Any]:
        """Per-tenant admitted/rejected counters and bucket levels."""
        now = self._clock()
        with self._lock:
            tenants = sorted(set(self._admitted) | set(self._rejected)
                             | set(self._buckets))
            return {
                tenant: {
                    "admitted": self._admitted.get(tenant, 0),
                    "rejected": self._rejected.get(tenant, 0),
                    "tokens": (
                        None if self._buckets.get(tenant) is None
                        else self._buckets[tenant]._refill(now)  # type: ignore[union-attr]
                    ),
                }
                for tenant in tenants
            }
