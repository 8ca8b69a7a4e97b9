"""QoS layer: tenants, admission control, weighted fair scheduling.

The in-flight window bounds *how much* work is in flight; this module
decides *whose* work gets in and in *what order*. Three cooperating
pieces:

* :class:`TenantContext` tags every offload with a tenant id, a priority
  class and an optional per-invoke deadline. Applications name it per
  call (``tenant=``) or ambiently (:func:`tenant_scope`); the runtime
  resolves it once and hands it to admission and to the window as an
  argument — backends never see it.
* :class:`AdmissionController` fast-fails work *before serialization*:
  a per-tenant token bucket enforces rate limits, and deadline-aware
  admission rejects an invoke whose deadline cannot cover the kernel's
  p95 round trip (``kernel.<kernel>.offload``). A rejected
  request raises :class:`~repro.errors.AdmissionRejectedError` in
  microseconds instead of burning a window slot and a deadline.
* :class:`FairInflightWindow` replaces the FIFO
  :class:`~repro.backends.base.InflightWindow` admission with
  deficit-weighted round robin across per-tenant queues: each tenant
  accrues quantum proportional to its weight every round and spends one
  unit per granted slot, so window capacity converges to the configured
  weight shares while no nonempty queue ever starves. When the queue
  backlog exceeds ``max_queue_depth`` the scheduler sheds load
  priority-ordered, lowest class first (``offload.shed`` telemetry).

The layer is opt-in: with ``Runtime(backend, qos=QoSConfig(...))`` (or
``offload.init(backend, qos=...)``) the runtime's window *is* the fair
window, whatever transport, proxy or composition ``backend`` is; without
a config the runtime behaves exactly as before.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.backends.base import DEFAULT_INFLIGHT_LIMIT, InflightWindow
from repro.errors import (
    DeadlineInfeasibleError,
    LoadShedError,
    OffloadError,
    OffloadTimeoutError,
    RateLimitedError,
)
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

__all__ = [
    "BEST_EFFORT",
    "STANDARD",
    "PREMIUM",
    "AdmissionController",
    "FairInflightWindow",
    "QoSConfig",
    "TenantContext",
    "TenantPolicy",
    "TokenBucket",
    "current_tenant",
    "profiled_service_time",
    "tenant_scope",
]

#: Priority classes, higher wins. Any int works; these are the
#: conventional three bands (shed order: BEST_EFFORT first).
BEST_EFFORT = 0
STANDARD = 1
PREMIUM = 2

#: Tenant id used when the caller never names one.
DEFAULT_TENANT_ID = "default"


@dataclass(frozen=True)
class TenantContext:
    """Identity and QoS parameters of one offload's originator.

    Attributes
    ----------
    tenant:
        Stable tenant id (the fair-queue and rate-limit key; also the
        per-tenant SLO dimension).
    priority:
        Priority class — higher classes are shed last under overload.
    weight:
        Fair-share weight: window slots converge to
        ``weight / sum(weights of active tenants)``. Must be positive.
    deadline:
        Optional per-invoke deadline budget in seconds, measured from
        admission. Deadline-aware admission rejects the invoke up front
        when the kernel's rolling service-time estimate exceeds it.
    """

    tenant: str = DEFAULT_TENANT_ID
    priority: int = STANDARD
    weight: float = 1.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise OffloadError("tenant id must be non-empty")
        if self.weight <= 0:
            raise OffloadError(f"tenant weight must be positive, got {self.weight}")
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

    weight: float = 1.0
    priority: int = STANDARD
    rate: float | None = None
    burst: float | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise OffloadError(f"weight must be positive, got {self.weight}")
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
    window:
        In-flight window limit for the fair scheduler; ``None`` keeps
        the backend's current limit.
    max_queue_depth:
        Total queued (not yet admitted) invokes across all tenants
        beyond which the scheduler sheds load, lowest priority first.
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
    window: int | None = None
    max_queue_depth: int = 256
    admission_percentile: float = 95.0
    admission_min_samples: int = 10
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise OffloadError(f"window must be positive, got {self.window}")
        if self.max_queue_depth < 1:
            raise OffloadError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}"
            )
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

        A bare tenant id picks up weight/priority/deadline from its
        policy; an explicit :class:`TenantContext` is taken as-is;
        ``None`` resolves the default tenant.
        """
        if isinstance(tenant, TenantContext):
            return tenant
        tenant_id = tenant if tenant is not None else DEFAULT_TENANT_ID
        policy = self.policy_for(tenant_id)
        return TenantContext(
            tenant=tenant_id,
            priority=policy.priority,
            weight=policy.weight,
            deadline=policy.deadline,
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
            priority=ctx.priority,
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


class _Waiter:
    """One queued acquire, parked until granted, shed or timed out."""

    __slots__ = ("ctx", "granted", "error")

    def __init__(self, ctx: TenantContext) -> None:
        self.ctx = ctx
        self.granted = False
        self.error: OffloadError | None = None

    def settled(self) -> bool:
        return self.granted or self.error is not None


class FairInflightWindow(InflightWindow):
    """Deficit-weighted round-robin admission over per-tenant queues.

    What ``Runtime(qos=...)`` owns in place of the FIFO
    :class:`InflightWindow`. While capacity is free, acquires are
    granted immediately; once the window fills, each acquire parks in
    its tenant's queue and slots freed by completions are granted by
    DRR: every round a tenant's deficit grows
    by its weight and each granted slot costs one unit, so long-run
    shares converge to the weight ratios while every nonempty queue is
    visited each round (no starvation).

    Overload (queued acquires exceeding ``config.max_queue_depth``)
    triggers priority-ordered shedding: the newest waiter of the
    lowest-priority queued tenant is failed with
    :class:`~repro.errors.LoadShedError` to make room for a
    higher-class arrival; arrivals at or below the lowest queued class
    are rejected outright.

    Parked acquires wait in the base class's loop, so on a driven
    transport (shm, the simulators) they pump replies like FIFO waiters
    do, and whoever DRR picks takes the slot a completion frees.
    """

    def __init__(
        self,
        limit: int = DEFAULT_INFLIGHT_LIMIT,
        config: QoSConfig | None = None,
    ) -> None:
        super().__init__(limit)
        self.config = config if config is not None else QoSConfig()
        #: tenant id -> queued waiters (FIFO within a tenant).
        self._queues: dict[str, deque[_Waiter]] = {}
        #: Round-robin ring of tenants with queued waiters.
        self._ring: list[str] = []
        self._ring_index = 0
        self._deficit: dict[str, float] = {}
        #: Tenant currently spending accumulated deficit, if any.
        self._serving: str | None = None
        self._queued = 0
        self._granted: dict[str, int] = {}
        self._shed: dict[str, int] = {}

    # -- admission ---------------------------------------------------------
    def acquire(
        self,
        *,
        tenant: "str | TenantContext | None" = None,
        timeout: float | None = None,
        label: str = "",
    ) -> None:
        """Reserve one slot, queueing under the tenant's DRR share.

        The runtime passes the offload's resolved ``tenant`` and, as
        ``timeout``, what is left of its overall budget — a retried
        offload parks here only for the rest of its deadline, never a
        fresh one. Without ``tenant`` the ambient :func:`tenant_scope`
        (then the config's default tenant) is charged.
        """
        if tenant is None:
            tenant = current_tenant()
        ctx = self.config.context_for(tenant)
        with self._lock:
            if self._queued == 0 and \
                    len(self._inflight) + self._reserved < self._limit:
                self._reserved += 1
                self._granted[ctx.tenant] = self._granted.get(ctx.tenant, 0) + 1
                flightrecorder.note("window.grant", tenant=ctx.tenant, queued=0)
                return
            waiter = self._enqueue_locked(ctx)
        with telemetry.span(
            "offload.window_wait", label=label,
            tenant=ctx.tenant, limit=self._limit,
        ), self._lock:
            try:
                settled = self._wait_locked(waiter.settled, timeout)
            except BaseException:
                if waiter.granted:  # while the drive was failing
                    self._reserved -= 1
                    self._freed_locked()
                else:
                    self._remove_locked(waiter)
                raise
            if waiter.error is not None:
                raise waiter.error
            if not settled:
                self._remove_locked(waiter)
                raise OffloadTimeoutError(
                    f"in-flight window full ({self._limit} operations "
                    "outstanding) and no slot granted to tenant "
                    f"{ctx.tenant!r} within the deadline"
                )
            self._granted[ctx.tenant] = self._granted.get(ctx.tenant, 0) + 1
            flightrecorder.note(
                "window.grant", tenant=ctx.tenant, queued=self._queued,
            )

    def _enqueue_locked(self, ctx: TenantContext) -> _Waiter:
        """File a waiter, shedding lowest-priority work under overload."""
        if self._queued >= self.config.max_queue_depth:
            victim = self._lowest_priority_locked()
            if victim is None or ctx.priority <= victim.ctx.priority:
                # The arrival itself is the lowest class: reject it.
                self._record_shed_locked(ctx)
                raise LoadShedError(
                    f"queue full ({self._queued} waiting) — shed tenant "
                    f"{ctx.tenant!r} (class {ctx.priority})"
                )
            self._evict_locked(victim)
        waiter = _Waiter(ctx)
        queue = self._queues.get(ctx.tenant)
        if queue is None:
            queue = self._queues[ctx.tenant] = deque()
        if ctx.tenant not in self._ring:
            self._ring.append(ctx.tenant)
        queue.append(waiter)
        self._queued += 1
        return waiter

    # -- scheduling --------------------------------------------------------
    def _freed_locked(self) -> None:
        """Hand freed capacity to queued waiters in DRR order."""
        while self._queued and self._has_room_locked():
            waiter = self._pick_locked()
            if waiter is None:  # pragma: no cover - defensive
                break
            self._reserved += 1
            self._queued -= 1
            waiter.granted = True
        self._slot_freed.notify_all()  # whoever was granted finds out

    def _pick_locked(self) -> _Waiter | None:
        """Deficit round robin: quantum = weight, one unit per grant."""
        while True:
            if self._serving is not None:
                tenant = self._serving
                queue = self._queues.get(tenant)
                if queue and self._deficit.get(tenant, 0.0) >= 1.0:
                    self._deficit[tenant] -= 1.0
                    waiter = queue.popleft()
                    if not queue:
                        # DRR resets the deficit of an emptied queue so
                        # idle tenants cannot bank credit.
                        self._deficit[tenant] = 0.0
                        self._retire_locked(tenant)
                    return waiter
                self._serving = None
            tenant = self._next_ring_locked()
            if tenant is None:
                return None
            weight = self._weight_of_locked(tenant)
            self._deficit[tenant] = self._deficit.get(tenant, 0.0) + weight
            if self._deficit[tenant] >= 1.0:
                self._serving = tenant

    def _next_ring_locked(self) -> str | None:
        """Advance the round-robin ring to the next tenant with waiters."""
        while self._ring:
            if self._ring_index >= len(self._ring):
                self._ring_index = 0
            tenant = self._ring[self._ring_index]
            if self._queues.get(tenant):
                self._ring_index += 1
                return tenant
            self._retire_locked(tenant)
        return None

    def _weight_of_locked(self, tenant: str) -> float:
        queue = self._queues.get(tenant)
        if queue:
            return queue[0].ctx.weight
        return self.config.policy_for(tenant).weight

    def _retire_locked(self, tenant: str) -> None:
        """Drop an emptied tenant from the ring (keeps the index stable)."""
        try:
            idx = self._ring.index(tenant)
        except ValueError:
            return
        del self._ring[idx]
        if idx < self._ring_index:
            self._ring_index -= 1
        if self._serving == tenant:
            self._serving = None
        self._queues.pop(tenant, None)

    # -- shedding ----------------------------------------------------------
    def _lowest_priority_locked(self) -> _Waiter | None:
        """The newest waiter of the lowest-priority queued class."""
        victim: _Waiter | None = None
        for queue in self._queues.values():
            if not queue:
                continue
            candidate = queue[-1]
            if victim is None or candidate.ctx.priority < victim.ctx.priority:
                victim = candidate
        return victim

    def _evict_locked(self, victim: _Waiter) -> None:
        queue = self._queues.get(victim.ctx.tenant)
        if queue is not None:
            try:
                queue.remove(victim)
            except ValueError:  # pragma: no cover - defensive
                return
            self._queued -= 1
            if not queue:
                self._retire_locked(victim.ctx.tenant)
        victim.error = LoadShedError(
            f"shed while queued: tenant {victim.ctx.tenant!r} "
            f"(class {victim.ctx.priority}) displaced by higher-class work"
        )
        self._record_shed_locked(victim.ctx)
        self._slot_freed.notify_all()

    def _record_shed_locked(self, ctx: TenantContext) -> None:
        self._shed[ctx.tenant] = self._shed.get(ctx.tenant, 0) + 1
        telemetry.event(
            "offload.shed", category="qos",
            tenant=ctx.tenant, priority=ctx.priority, queued=self._queued,
        )

    def _remove_locked(self, waiter: _Waiter) -> None:
        queue = self._queues.get(waiter.ctx.tenant)
        if queue is not None:
            try:
                queue.remove(waiter)
                self._queued -= 1
            except ValueError:
                pass
            if not queue:
                self._retire_locked(waiter.ctx.tenant)

    def set_limit(self, limit: int) -> None:
        super().set_limit(limit)
        with self._lock:
            self._freed_locked()

    # -- introspection -----------------------------------------------------
    @property
    def queued(self) -> int:
        """Acquires currently parked in tenant queues."""
        with self._lock:
            return self._queued

    def snapshot(self) -> dict[str, Any]:
        """Per-tenant granted/shed/queued counters for ``stats()``."""
        with self._lock:
            tenants = sorted(
                set(self._granted) | set(self._shed) | set(self._queues)
            )
            return {
                "limit": self._limit,
                "queued": self._queued,
                "tenants": {
                    tenant: {
                        "granted": self._granted.get(tenant, 0),
                        "shed": self._shed.get(tenant, 0),
                        "queued": len(self._queues.get(tenant, ())),
                    }
                    for tenant in tenants
                },
            }
