"""QoS layer: tenants and admission control.

The in-flight window (the runtime's
:class:`~repro.backends.base.InflightWindow`, first come, first served)
bounds *how much* work is in flight; this module decides *whose* work
gets in at all. Two cooperating pieces:

* :class:`TenantContext` tags every offload with a tenant id and an
  optional per-invoke deadline. Applications name it per call
  (``tenant=``) or ambiently (:func:`tenant_scope`); the runtime
  resolves it once and hands it to admission as an argument — backends
  never see it.
* :class:`AdmissionController` fast-fails work *before serialization*:
  a per-tenant token bucket enforces rate limits, and deadline-aware
  admission rejects an invoke whose deadline cannot cover the kernel's
  p95 round trip (``kernel.<kernel>.offload``). A rejected
  request raises :class:`~repro.errors.AdmissionRejectedError` in
  microseconds instead of burning a window slot and a deadline.

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

from repro.errors import DeadlineInfeasibleError, OffloadError, RateLimitedError
from repro.telemetry import recorder as telemetry

__all__ = [
    "AdmissionController",
    "QoSConfig",
    "TenantContext",
    "TenantPolicy",
    "TokenBucket",
    "current_tenant",
    "profiled_service_time",
    "tenant_scope",
]

#: Tenant id used when the caller never names one.
DEFAULT_TENANT_ID = "default"


@dataclass(frozen=True)
class TenantContext:
    """Identity and QoS parameters of one offload's originator.

    Attributes
    ----------
    tenant:
        Stable tenant id (the rate-limit key; also the per-tenant SLO
        dimension).
    deadline:
        Optional per-invoke deadline budget in seconds, measured from
        admission. Deadline-aware admission rejects the invoke up front
        when the kernel's rolling service-time estimate exceeds it.
    """

    tenant: str = DEFAULT_TENANT_ID
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise OffloadError("tenant id must be non-empty")
        if self.deadline is not None and self.deadline <= 0:
            raise OffloadError(
                f"tenant deadline must be positive, got {self.deadline}"
            )


#: The ambient tenant of the current thread/task (what an application
#: sets with :func:`tenant_scope`; the runtime reads it once per offload).
_CURRENT_TENANT: contextvars.ContextVar["str | TenantContext | None"] = (
    contextvars.ContextVar("repro_tenant", default=None)
)


def current_tenant() -> "str | TenantContext | None":
    """The ambient tenant, or ``None`` outside a scope.

    A bare tenant id set via ``tenant_scope("name")`` is returned as the
    string; consumers resolve it against their :class:`QoSConfig` (so
    the same scope picks up each runtime's policy for that tenant).
    """
    return _CURRENT_TENANT.get()


class tenant_scope:  # lower case: it is used like a function
    """Make ``ctx`` the ambient tenant for the duration of the block.

    Accepts a full :class:`TenantContext` or a bare tenant id; a bare id
    is resolved to the runtime's policy for that tenant at each offload.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: "str | TenantContext | None") -> None:
        self._ctx = ctx

    def __enter__(self) -> None:
        self._token = _CURRENT_TENANT.set(self._ctx)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        _CURRENT_TENANT.reset(self._token)


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant configuration inside a :class:`QoSConfig`.

    ``rate``/``burst`` configure the tenant's token bucket in invokes
    per second / invokes; ``None`` rate disables rate limiting for the
    tenant. ``deadline`` is the default per-invoke deadline budget.
    """

    rate: float | None = None
    burst: float | None = None
    deadline: float | None = None

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
    admission_percentile:
        Percentile of the kernel's rolling service-time profile used as
        the estimate (the "p95 service time" of the admission rule).
    admission_min_samples:
        Completed offloads of a kernel required before its estimate is
        trusted; below it deadline admission always admits.
    headroom:
        Safety factor on the estimate: reject when
        ``estimate * headroom > deadline``.
    """

    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    admission_percentile: float = 95.0
    admission_min_samples: int = 10
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.admission_percentile <= 100.0:
            raise OffloadError(
                "admission_percentile must be in (0, 100], got "
                f"{self.admission_percentile}"
            )
        if self.headroom <= 0:
            raise OffloadError(f"headroom must be positive, got {self.headroom}")

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The effective :class:`TenantPolicy` of ``tenant``."""
        return self.tenants.get(tenant, self.default_policy)

    def context_for(
        self, tenant: "str | TenantContext | None"
    ) -> TenantContext:
        """Resolve a caller-supplied tenant into a full context.

        A bare tenant id picks up its policy's deadline; an explicit
        :class:`TenantContext` is taken as-is; ``None`` resolves the
        default tenant.
        """
        if isinstance(tenant, TenantContext):
            return tenant
        tenant_id = tenant if tenant is not None else DEFAULT_TENANT_ID
        return TenantContext(
            tenant=tenant_id, deadline=self.policy_for(tenant_id).deadline
        )


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
            elapsed = max(0.0, now - self._stamp)
            self._stamp = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        """Tokens currently available (refreshes the bucket)."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._stamp)
            self._stamp = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            return self._tokens


def profiled_service_time(
    percentile: float = 95.0, min_samples: int = 10
) -> Callable[[str], float | None]:
    """Service-time estimator backed by the kernel's round-trip series.

    Returns a callable ``estimate(kernel) -> seconds | None`` reading
    :func:`repro.telemetry.recorder.kernel_percentile`. ``None`` means
    "no telemetry / not enough samples" — admission then admits, because
    rejecting on no data would fail closed.
    """
    return lambda kernel: telemetry.kernel_percentile(
        kernel, percentile, min_samples)


class AdmissionController:
    """Fast-fail gate run before an offload is serialized.

    Checks, in order: the tenant's token bucket (rate limit), then
    deadline feasibility against the kernel's rolling service-time
    estimate. Raises an :class:`~repro.errors.AdmissionRejectedError`
    subclass on refusal; counts both outcomes per tenant.
    """

    def __init__(
        self,
        config: QoSConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
        estimator: Callable[[str], float | None] | None = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self._estimator = estimator if estimator is not None else (
            profiled_service_time(
                config.admission_percentile, config.admission_min_samples
            )
        )
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket | None] = {}
        self._admitted: dict[str, int] = {}
        self._rejected: dict[str, int] = {}

    def _bucket(self, tenant: str) -> TokenBucket | None:
        with self._lock:
            if tenant not in self._buckets:
                policy = self.config.policy_for(tenant)
                if policy.rate is None:
                    self._buckets[tenant] = None
                else:
                    burst = policy.burst if policy.burst is not None \
                        else max(1.0, policy.rate)
                    self._buckets[tenant] = TokenBucket(
                        policy.rate, burst, clock=self._clock
                    )
            return self._buckets[tenant]

    def admit(self, ctx: TenantContext, kernel: str) -> None:
        """Admit one invoke of ``kernel`` for ``ctx`` or raise.

        Raises
        ------
        RateLimitedError
            The tenant's token bucket is empty.
        DeadlineInfeasibleError
            ``ctx.deadline`` cannot cover the kernel's rolling
            service-time estimate (with the configured headroom).
        """
        bucket = self._bucket(ctx.tenant)
        if bucket is not None and not bucket.try_acquire():
            self._reject(ctx, kernel, "rate_limited")
            raise RateLimitedError(
                f"tenant {ctx.tenant!r} over its rate limit "
                f"({bucket.rate:g}/s, burst {bucket.burst:g})"
            )
        if ctx.deadline is not None:
            estimate = self._estimator(kernel)
            if estimate is not None and \
                    estimate * self.config.headroom > ctx.deadline:
                self._reject(ctx, kernel, "deadline_infeasible")
                raise DeadlineInfeasibleError(
                    f"kernel {kernel!r} p{self.config.admission_percentile:g} "
                    f"service time {estimate * 1e3:.2f} ms cannot meet the "
                    f"{ctx.deadline * 1e3:.2f} ms deadline of tenant "
                    f"{ctx.tenant!r}"
                )
        with self._lock:
            self._admitted[ctx.tenant] = self._admitted.get(ctx.tenant, 0) + 1

    def _reject(self, ctx: TenantContext, kernel: str, reason: str) -> None:
        with self._lock:
            self._rejected[ctx.tenant] = self._rejected.get(ctx.tenant, 0) + 1
        telemetry.event(
            "qos.rejected", category="qos",
            tenant=ctx.tenant, kernel=kernel, reason=reason,
        )

    def snapshot(self) -> dict[str, Any]:
        """Per-tenant admitted/rejected counters and bucket levels."""
        with self._lock:
            tenants = sorted(set(self._admitted) | set(self._rejected)
                             | set(self._buckets))
            return {
                tenant: {
                    "admitted": self._admitted.get(tenant, 0),
                    "rejected": self._rejected.get(tenant, 0),
                    "tokens": (
                        None if self._buckets.get(tenant) is None
                        else self._buckets[tenant].available  # type: ignore[union-attr]
                    ),
                }
                for tenant in tenants
            }
