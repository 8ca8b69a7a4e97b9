"""QoS layer tests: tenants and admission control.

The serving-side invariants under test: admission rejections fail fast
and *before* serialization, and the tenant context flows from
``sync(tenant=...)`` down to the SLO stream without any backend
signature changes.
"""

from __future__ import annotations

import time

import pytest

from repro.backends import LocalBackend
from repro.backends.base import InflightWindow
from repro.errors import (
    AdmissionRejectedError,
    DeadlineInfeasibleError,
    OffloadError,
    OffloadTimeoutError,
    RateLimitedError,
)
from repro.ham import f2f
from repro.offload import (
    AdmissionController,
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
from tests.offload.stubs import ThreadedStubBackend


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
        assert ctx.deadline is None

    @pytest.mark.parametrize("kwargs", [dict(tenant=""), dict(deadline=0.0)])
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
        """``sync`` resolves the tenant once and hands it to admission,
        which accounts the offload to that tenant."""
        runtime = Runtime(LocalBackend(), qos=QoSConfig())
        try:
            assert runtime.sync(1, f2f(apps.add, 1, 2), tenant="explicit") == 3
            with tenant_scope("ambient"):
                assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
                assert current_tenant() == "ambient"
            tenants = runtime.stats()["qos"]["admission"]
            assert tenants["explicit"]["admitted"] == 1
            assert tenants["ambient"]["admitted"] == 1
        finally:
            runtime.shutdown()


class TestQoSConfig:
    def test_context_for_resolves_policy(self):
        config = QoSConfig(tenants={"gold": TenantPolicy(deadline=0.5)})
        gold = config.context_for("gold")
        assert gold == TenantContext(tenant="gold", deadline=0.5)
        assert config.context_for("unknown").deadline is None
        assert config.context_for(None).tenant == "default"
        explicit = TenantContext(tenant="x", deadline=9.0)
        assert config.context_for(explicit) is explicit

    def test_validation(self):
        with pytest.raises(OffloadError):
            QoSConfig(admission_percentile=0.0)
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
# Runtime integration
# ---------------------------------------------------------------------------


class TestRuntimeIntegration:
    def test_qos_installs_admission(self):
        backend = LocalBackend()
        runtime = Runtime(backend, window=8, qos=QoSConfig())
        assert type(runtime.window) is InflightWindow
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
        config = QoSConfig(tenants={"gold": TenantPolicy(deadline=5.0)})
        runtime = Runtime(LocalBackend(), qos=config)
        with tenant_scope("gold"):
            assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
        assert runtime.stats()["qos"]["admission"]["gold"]["admitted"] == 1
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
        assert runtime.stats()["qos"]["admission"]["gold"]["admitted"] == 1
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
