"""QoS layer tests: tenants and admission control.

The serving-side invariants under test: admission rejections fail fast
and *before* serialization and are counted by admission alone, never as
a failed round trip, and the tenant id reaches admission from
``sync(tenant=...)`` or the ambient scope without any backend signature
changes.
"""

from __future__ import annotations

import time

import pytest

from repro.backends import LocalBackend
from repro.backends.base import InflightWindow
from repro.errors import AdmissionRejectedError, OffloadError, RateLimitedError
from repro.ham import f2f
from repro.offload import (
    AdmissionController,
    QoSConfig,
    Runtime,
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
# tenant_scope / QoSConfig
# ---------------------------------------------------------------------------


class TestTenantScope:
    """``tenant_scope`` is a plain context manager, not a generator: the
    contextvar set/reset semantics it must keep."""

    def test_scope_is_ambient_and_restored(self):
        assert current_tenant() is None
        with tenant_scope("a"):
            assert current_tenant() == "a"
            with tenant_scope(None):
                assert current_tenant() is None
            assert current_tenant() == "a"
        assert current_tenant() is None

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
    def test_policy_for_falls_back_to_the_default_policy(self):
        gold = TenantPolicy(rate=5.0)
        config = QoSConfig(tenants={"gold": gold})
        assert config.policy_for("gold") is gold
        assert config.policy_for("unknown") is config.default_policy
        assert config.default_policy == TenantPolicy()

    def test_validation(self):
        with pytest.raises(OffloadError):
            TenantPolicy(rate=0.0)
        with pytest.raises(OffloadError):
            TenantPolicy(burst=-1.0)


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
        admission = AdmissionController(config, clock=lambda: clock[0])
        admission.admit("limited", "k")
        admission.admit("limited", "k")
        with pytest.raises(RateLimitedError):
            admission.admit("limited", "k")
        clock[0] += 1.0
        admission.admit("limited", "k")
        snap = admission.snapshot()
        assert snap["limited"]["admitted"] == 3
        assert snap["limited"]["rejected"] == 1

    def test_unlimited_tenant_never_rate_limited(self):
        admission = AdmissionController(QoSConfig())
        for _ in range(100):
            admission.admit("free", "k")


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
        # A bare id in tenant_scope is admitted as that tenant, exactly
        # like an explicit tenant= argument.
        runtime = Runtime(LocalBackend(), qos=QoSConfig())
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

    def test_rejection_is_counted_by_admission_not_as_a_failed_round_trip(self):
        """A refused offload made no round trip: admission counts it
        (``rejected``, ``qos.rejected``); no failure counter and no
        round-trip histogram does."""
        recorder = telemetry.enable()
        config = QoSConfig(tenants={
            "noisy": TenantPolicy(rate=0.001, burst=1.0),
        })
        runtime = Runtime(LocalBackend(), qos=config)
        functor = f2f(apps.add, 1, 1)
        kernel = functor.type_name
        try:
            runtime.sync(1, functor, tenant="noisy")
            with pytest.raises(AdmissionRejectedError):
                runtime.sync(1, functor, tenant="noisy")
            snap = recorder.metrics.snapshot()
            for series in (f"kernel.{kernel}.errors", "future.timeouts",
                           "offload.issue_failures"):
                assert snap["counters"].get(series, 0) == 0, series
            # The admitted sync's round trip, and no other.
            assert snap["histograms"][f"kernel.{kernel}.offload"]["count"] == 1
            assert runtime.stats()["qos"]["admission"]["noisy"]["rejected"] == 1
            assert [event.attrs["tenant"]
                    for event in recorder.events("qos.rejected")] == ["noisy"]
        finally:
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

    @pytest.mark.parametrize("qos", [None, QoSConfig()], ids=["plain", "qos"])
    @pytest.mark.parametrize("call", ["sync", "async_"])
    @pytest.mark.parametrize("how", ["argument", "scope"])
    def test_an_empty_tenant_id_is_refused(self, qos, call, how):
        runtime = Runtime(LocalBackend(), qos=qos)
        offload = getattr(runtime, call)
        try:
            with pytest.raises(OffloadError, match="non-empty"):
                if how == "argument":
                    offload(1, f2f(apps.add, 1, 1), tenant="")
                else:
                    with tenant_scope(""):
                        offload(1, f2f(apps.add, 1, 1))
            assert runtime.window.in_flight == 0
            assert runtime.sync(1, f2f(apps.add, 1, 1), tenant="t") == 2
        finally:
            runtime.shutdown()
