"""QoS layer tests: tenants, admission control, fair window, shedding.

The serving-side invariants under test: admission rejections fail fast
and *before* serialization, the fair window grants capacity by weight
without starving anyone, overload sheds lowest-priority work first, and
the tenant context flows from ``sync(tenant=...)`` down to the SLO
stream without any backend signature changes.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.backends import LocalBackend
from repro.backends.base import InflightWindow, InvokeHandle
from repro.errors import (
    AdmissionRejectedError,
    DeadlineInfeasibleError,
    LoadShedError,
    OffloadError,
    OffloadTimeoutError,
    RateLimitedError,
)
from repro.ham import f2f
from repro.offload import (
    BEST_EFFORT,
    PREMIUM,
    STANDARD,
    AdmissionController,
    FairInflightWindow,
    QoSConfig,
    Runtime,
    TenantContext,
    TenantPolicy,
    TokenBucket,
    current_tenant,
    tenant_scope,
)
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.offload.stubs import DrivenStubBackend, ThreadedStubBackend


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


# ---------------------------------------------------------------------------
# TenantContext / QoSConfig
# ---------------------------------------------------------------------------


class TestTenantContext:
    def test_defaults(self):
        ctx = TenantContext()
        assert ctx.tenant == "default"
        assert ctx.priority == STANDARD
        assert ctx.weight == 1.0
        assert ctx.deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [dict(tenant=""), dict(weight=0.0), dict(weight=-1.0),
         dict(deadline=0.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(OffloadError):
            TenantContext(**kwargs)

    def test_scope_is_ambient_and_restored(self):
        assert current_tenant() is None
        ctx = TenantContext(tenant="a")
        with tenant_scope(ctx):
            assert current_tenant() is ctx
            with tenant_scope(None):
                assert current_tenant() is None
            assert current_tenant() is ctx
        assert current_tenant() is None


class TestTenantScope:
    """``tenant_scope`` is a plain context manager, not a generator: the
    contextvar set/reset semantics it must keep."""

    def test_restored_when_the_block_raises(self):
        with tenant_scope("outer"):
            with pytest.raises(RuntimeError, match="boom"):
                with tenant_scope("inner"):
                    assert current_tenant() == "inner"
                    raise RuntimeError("boom")
            assert current_tenant() == "outer"
        assert current_tenant() is None

    def test_three_deep_unwinds_in_order(self):
        with tenant_scope("a"):
            with tenant_scope("b"):
                with tenant_scope("c"):
                    assert current_tenant() == "c"
                assert current_tenant() == "b"
            assert current_tenant() == "a"
        assert current_tenant() is None

    def test_scope_is_per_asyncio_task(self):
        import asyncio

        seen = {}

        async def worker(name):
            with tenant_scope(name):
                await asyncio.sleep(0)  # let the other tasks run inside theirs
                seen[name] = current_tenant()
                await asyncio.sleep(0)
            return current_tenant()

        async def main():
            return await asyncio.gather(*(worker(n) for n in ("a", "b", "c")))

        assert asyncio.run(main()) == [None, None, None]
        assert seen == {"a": "a", "b": "b", "c": "c"}
        assert current_tenant() is None

    def test_sync_without_policy_sees_explicit_and_ambient_tenant(self):
        """``sync`` resolves the tenant once and still hands it to the
        window: the fair scheduler accounts the grant to that tenant."""
        runtime = Runtime(LocalBackend(), qos=QoSConfig())
        try:
            assert runtime.sync(1, f2f(apps.add, 1, 2), tenant="explicit") == 3
            with tenant_scope("ambient"):
                assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
                assert current_tenant() == "ambient"
            tenants = runtime.stats()["qos"]["window"]["tenants"]
            assert tenants["explicit"]["granted"] == 1
            assert tenants["ambient"]["granted"] == 1
        finally:
            runtime.shutdown()


class TestQoSConfig:
    def test_context_for_resolves_policy(self):
        config = QoSConfig(tenants={
            "gold": TenantPolicy(weight=4.0, priority=PREMIUM, deadline=0.5),
        })
        gold = config.context_for("gold")
        assert gold.weight == 4.0
        assert gold.priority == PREMIUM
        assert gold.deadline == 0.5
        anon = config.context_for("unknown")
        assert anon.weight == 1.0 and anon.priority == STANDARD
        assert config.context_for(None).tenant == "default"
        explicit = TenantContext(tenant="x", weight=9.0)
        assert config.context_for(explicit) is explicit

    def test_validation(self):
        with pytest.raises(OffloadError):
            QoSConfig(max_queue_depth=0)
        with pytest.raises(OffloadError):
            QoSConfig(admission_percentile=0.0)
        with pytest.raises(OffloadError):
            QoSConfig(window=0)
        with pytest.raises(OffloadError):
            QoSConfig(headroom=0.0)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] += 0.1  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=lambda: clock[0])
        clock[0] += 1000.0
        assert bucket.available == 3.0

    def test_validation(self):
        with pytest.raises(OffloadError):
            TokenBucket(rate=0.0, burst=1.0)


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_rate_limit(self):
        clock = [0.0]
        config = QoSConfig(tenants={
            "limited": TenantPolicy(rate=1.0, burst=2.0),
        })
        admission = AdmissionController(
            config, clock=lambda: clock[0], estimator=lambda kernel: None
        )
        ctx = config.context_for("limited")
        admission.admit(ctx, "k")
        admission.admit(ctx, "k")
        with pytest.raises(RateLimitedError):
            admission.admit(ctx, "k")
        clock[0] += 1.0
        admission.admit(ctx, "k")
        snap = admission.snapshot()
        assert snap["limited"]["admitted"] == 3
        assert snap["limited"]["rejected"] == 1

    def test_unlimited_tenant_never_rate_limited(self):
        admission = AdmissionController(
            QoSConfig(), estimator=lambda kernel: None
        )
        ctx = TenantContext(tenant="free")
        for _ in range(100):
            admission.admit(ctx, "k")

    def test_deadline_infeasible(self):
        admission = AdmissionController(
            QoSConfig(), estimator=lambda kernel: 0.5
        )
        tight = TenantContext(tenant="t", deadline=0.1)
        with pytest.raises(DeadlineInfeasibleError):
            admission.admit(tight, "slow_kernel")
        roomy = TenantContext(tenant="t", deadline=1.0)
        admission.admit(roomy, "slow_kernel")
        # No deadline -> nothing to be infeasible against.
        admission.admit(TenantContext(tenant="t"), "slow_kernel")

    def test_headroom_scales_estimate(self):
        admission = AdmissionController(
            QoSConfig(headroom=3.0), estimator=lambda kernel: 0.1
        )
        ctx = TenantContext(tenant="t", deadline=0.2)
        with pytest.raises(DeadlineInfeasibleError):
            admission.admit(ctx, "k")

    def test_no_estimate_admits(self):
        admission = AdmissionController(
            QoSConfig(), estimator=lambda kernel: None
        )
        admission.admit(TenantContext(tenant="t", deadline=1e-9), "cold")

    def test_profiled_estimator_reads_live_profile(self):
        recorder = telemetry.enable()
        for _ in range(20):
            recorder.kernel_offload("hot").observe(0.1)  # 0.1 s each
        admission = AdmissionController(
            QoSConfig(admission_min_samples=10)
        )
        with pytest.raises(DeadlineInfeasibleError):
            admission.admit(TenantContext(tenant="t", deadline=0.01), "hot")
        admission.admit(TenantContext(tenant="t", deadline=10.0), "hot")
        # Unknown kernel: no profile, admit.
        admission.admit(TenantContext(tenant="t", deadline=0.01), "cold")


# ---------------------------------------------------------------------------
# FairInflightWindow
# ---------------------------------------------------------------------------


def _fill_window(window: FairInflightWindow, n: int) -> list:
    """Occupy ``n`` slots with handles nothing completes."""
    handles = []
    for _ in range(n):
        window.acquire()
        handle = InvokeHandle(None)
        window.register(handle)
        handles.append(handle)
    return handles


class TestFairWindow:
    def test_fast_path_grants_under_capacity(self):
        window = FairInflightWindow(4)
        handles = _fill_window(window, 4)
        assert window.in_flight == 4
        for handle in handles:
            window.release(handle)
        assert window.in_flight == 0

    def test_weighted_grant_order(self):
        """With the window saturated, queued tenants are served ~by weight."""
        config = QoSConfig(tenants={
            "heavy": TenantPolicy(weight=3.0),
            "light": TenantPolicy(weight=1.0),
        })
        window = FairInflightWindow(1, config)
        blocker = _fill_window(window, 1)[0]

        grants: list[str] = []
        grant_lock = threading.Lock()
        started = threading.Barrier(25)

        def worker(tenant: str) -> None:
            ctx = config.context_for(tenant)
            with tenant_scope(ctx):
                started.wait()
                window.acquire(timeout=10.0)
            with grant_lock:
                grants.append(tenant)
            # Grant consumed; hand the reserved slot straight back.
            window.cancel()

        threads = [
            threading.Thread(
                target=worker, args=("heavy" if i % 2 else "light",),
                daemon=True,
            )
            for i in range(24)
        ]
        for t in threads:
            t.start()
        started.wait()  # all 24 queued (well, racing to queue)
        time.sleep(0.2)  # let every worker actually park in its queue
        window.release(blocker)
        for t in threads:
            t.join(timeout=10.0)
        assert len(grants) == 24
        # First 8 grants: heavy should take ~3/4 of them.
        head = grants[:8]
        assert head.count("heavy") >= 5, grants

    def test_no_starvation_single_waiter(self):
        config = QoSConfig(tenants={"big": TenantPolicy(weight=100.0)})
        window = FairInflightWindow(1, config)
        blocker = _fill_window(window, 1)[0]
        got = threading.Event()

        def small_tenant() -> None:
            with tenant_scope(TenantContext(tenant="tiny", weight=0.1)):
                window.acquire(timeout=5.0)
            got.set()

        thread = threading.Thread(target=small_tenant, daemon=True)
        thread.start()
        time.sleep(0.05)
        window.release(blocker)
        assert got.wait(5.0), "low-weight tenant starved"
        thread.join(timeout=5.0)

    def test_queue_timeout(self):
        window = FairInflightWindow(1)
        _fill_window(window, 1)
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError):
            window.acquire(timeout=0.1)
        assert time.monotonic() - start < 2.0
        assert window.queued == 0  # timed-out waiter removed

    def test_shed_rejects_lowest_class_arrival(self):
        config = QoSConfig(max_queue_depth=1)
        window = FairInflightWindow(1, config)
        _fill_window(window, 1)
        parked = threading.Event()

        def premium_waiter() -> None:
            ctx = TenantContext(tenant="vip", priority=PREMIUM)
            with tenant_scope(ctx):
                parked.set()
                try:
                    window.acquire(timeout=5.0)
                except OffloadError:
                    pass
                else:
                    window.cancel()

        thread = threading.Thread(target=premium_waiter, daemon=True)
        thread.start()
        parked.wait(5.0)
        time.sleep(0.1)  # premium waiter parks; queue is now at depth
        with tenant_scope(TenantContext(tenant="junk", priority=BEST_EFFORT)):
            with pytest.raises(LoadShedError):
                window.acquire(timeout=1.0)
        snap = window.snapshot()
        assert snap["tenants"]["junk"]["shed"] == 1

    def test_shed_evicts_queued_lower_class_for_premium_arrival(self):
        config = QoSConfig(max_queue_depth=1)
        window = FairInflightWindow(1, config)
        blocker = _fill_window(window, 1)[0]
        shed_error: list[BaseException] = []
        parked = threading.Event()

        def best_effort_waiter() -> None:
            ctx = TenantContext(tenant="junk", priority=BEST_EFFORT)
            with tenant_scope(ctx):
                parked.set()
                try:
                    window.acquire(timeout=5.0)
                except LoadShedError as exc:
                    shed_error.append(exc)

        thread = threading.Thread(target=best_effort_waiter, daemon=True)
        thread.start()
        parked.wait(5.0)
        time.sleep(0.1)

        granted = threading.Event()

        def premium_arrival() -> None:
            ctx = TenantContext(tenant="vip", priority=PREMIUM)
            with tenant_scope(ctx):
                window.acquire(timeout=5.0)
            granted.set()
            window.cancel()

        vip = threading.Thread(target=premium_arrival, daemon=True)
        vip.start()
        time.sleep(0.1)
        window.release(blocker)
        assert granted.wait(5.0), "premium arrival not granted"
        thread.join(timeout=5.0)
        vip.join(timeout=5.0)
        assert shed_error, "queued best-effort waiter was not shed"

    def test_driven_transport_gets_drr_order(self):
        """On a transport nothing completes unless a waiter drives it
        (shm, the simulators) parked tenants are still served by weight:
        the waiters pump, DRR says whose turn the freed slot is."""
        config = QoSConfig(window=1, tenants={
            "heavy": TenantPolicy(weight=3.0),
            "light": TenantPolicy(weight=1.0),
        })
        backend = DrivenStubBackend()
        runtime = Runtime(backend, qos=config)
        blocker = runtime.async_(1, f2f(apps.echo, "blocker"))  # the slot
        failures: list[BaseException] = []

        def worker(tenant: str) -> None:
            try:
                assert runtime.sync(1, f2f(apps.echo, tenant), tenant=tenant) == tenant
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(
                target=worker, args=("heavy" if i % 2 else "light",),
                daemon=True,
            )
            for i in range(24)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while runtime.window.queued < 24 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert runtime.window.queued == 24
        backend.gate.set()  # from here on a drive completes something
        for t in threads:
            t.join(timeout=10.0)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert blocker.get(timeout=10.0) == "blocker"
        # With one slot, posts happen one grant at a time, in grant order.
        served = [args[0] for args in backend.posted_args[1:]]
        assert len(served) == 24 and served[:8].count("heavy") >= 5, served
        tenants = runtime.stats()["qos"]["window"]["tenants"]
        assert tenants["heavy"]["granted"] == tenants["light"]["granted"] == 12
        assert runtime.window.in_flight == 0
        runtime.shutdown()


# ---------------------------------------------------------------------------
# Runtime integration
# ---------------------------------------------------------------------------


class TestRuntimeIntegration:
    def test_qos_installs_fair_window(self):
        backend = LocalBackend()
        runtime = Runtime(backend, qos=QoSConfig(window=8))
        assert isinstance(runtime.window, FairInflightWindow)
        assert runtime.window.limit == 8
        assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        stats = runtime.stats()
        assert stats["qos"]["admission"]["default"]["admitted"] == 1
        runtime.shutdown()

    def test_tenant_scope_accepts_bare_id(self):
        # Regression: a bare string in tenant_scope must resolve to the
        # runtime's policy for that tenant (deadline included), exactly
        # like an explicit tenant= argument — not leak into the deadline
        # check as a str.
        config = QoSConfig(tenants={
            "gold": TenantPolicy(weight=4.0, deadline=5.0),
        })
        runtime = Runtime(LocalBackend(), qos=config)
        with tenant_scope("gold"):
            assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        snap = runtime.stats()["qos"]
        assert snap["admission"]["gold"]["admitted"] == 1
        assert snap["window"]["tenants"]["gold"]["granted"] == 1
        runtime.shutdown()

    def test_sync_rejects_rate_limited_tenant_fast(self):
        config = QoSConfig(tenants={
            "noisy": TenantPolicy(rate=0.001, burst=1.0),
        })
        backend = LocalBackend()
        runtime = Runtime(backend, qos=config)
        assert runtime.sync(1, f2f(apps.add, 1, 1), tenant="noisy") == 2
        start = time.monotonic()
        with pytest.raises(RateLimitedError):
            runtime.sync(1, f2f(apps.add, 1, 1), tenant="noisy")
        assert time.monotonic() - start < 0.5  # fast-fail, not a deadline
        runtime.shutdown()

    def test_rejection_counts_against_tenant_slo(self):
        recorder = telemetry.enable()
        from repro.telemetry.slo import SLOMonitor

        recorder.slo = SLOMonitor(min_samples=1)
        config = QoSConfig(tenants={
            "noisy": TenantPolicy(rate=0.001, burst=1.0),
        })
        runtime = Runtime(LocalBackend(), qos=config)
        runtime.sync(1, f2f(apps.add, 1, 1), tenant="noisy")
        with pytest.raises(AdmissionRejectedError):
            runtime.sync(1, f2f(apps.add, 1, 1), tenant="noisy")
        snap = recorder.slo.snapshot()
        key = "offload-availability[noisy]"
        assert key in snap and snap[key]["bad"] == 1
        runtime.shutdown()

    def test_tenant_flows_through_threaded_backend(self):
        backend = ThreadedStubBackend(num_targets=1, delay=0.0)
        runtime = Runtime(backend, qos=QoSConfig())
        assert runtime.sync(1, f2f(apps.add, 4, 5), tenant="gold") == 9
        snap = runtime.window.snapshot()
        assert snap["tenants"]["gold"]["granted"] == 1
        runtime.shutdown()

    def test_without_qos_behavior_unchanged(self):
        backend = LocalBackend()
        runtime = Runtime(backend)
        assert type(runtime.window) is InflightWindow
        assert runtime.sync(1, f2f(apps.add, 1, 2), tenant="whoever") == 3
        assert "qos" not in runtime.stats()
        runtime.shutdown()

    def test_tenant_deadline_becomes_sync_timeout(self):
        config = QoSConfig(tenants={
            "t": TenantPolicy(deadline=0.2),
        })
        backend = ThreadedStubBackend(num_targets=1, delay=2.0)
        runtime = Runtime(backend, qos=config)
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError):
            runtime.sync(1, f2f(apps.sleep_then, 0.0, "x"), tenant="t")
        assert time.monotonic() - start < 1.5
        runtime.shutdown()
