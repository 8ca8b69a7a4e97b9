"""Per-tenant SLO evaluation: isolation, cardinality cap, surfacing."""

from __future__ import annotations

from repro.telemetry.slo import SLO, SLOMonitor

#: A tight availability SLO that breaches after a couple of errors.
AVAIL = SLO(name="avail", threshold_ns=None, objective=0.9)


def _monitor(**kwargs):
    events = []

    def emit(name, **attrs):
        events.append((name, attrs))

    monitor = SLOMonitor(
        [AVAIL], fast_window=10, slow_window=20, min_samples=4,
        burn_threshold=2.0, emit=emit, **kwargs,
    )
    return monitor, events


class TestTenantIsolation:
    def test_noisy_tenant_breaches_alone(self):
        monitor, events = _monitor()
        # Plenty of global good traffic from the quiet tenant...
        for _ in range(40):
            monitor.observe(1, tenant="quiet")
        # ...then one tenant fails hard.
        for _ in range(10):
            monitor.observe(1, error=True, tenant="noisy")
        breached = monitor.breached()
        assert "avail[noisy]" in breached
        assert "avail[quiet]" not in breached
        breach_events = [attrs for name, attrs in events
                         if name == "telemetry.slo_breach"]
        assert any(attrs["slo"] == "avail[noisy]"
                   and attrs["tenant"] == "noisy"
                   for attrs in breach_events)
        assert all(attrs.get("tenant") != "quiet" for attrs in breach_events)

    def test_global_state_always_fed(self):
        monitor, _ = _monitor()
        for _ in range(10):
            monitor.observe(1, error=True, tenant="noisy")
        # With *only* bad traffic, the global SLO breaches too — the
        # tenant dimension adds attribution, it never hides load.
        assert "avail" in monitor.breached()

    def test_tenantless_observe_feeds_global_only(self):
        monitor, _ = _monitor()
        for _ in range(10):
            monitor.observe(1, error=True)
        snapshot = monitor.snapshot()
        assert list(snapshot) == ["avail"]
        assert snapshot["avail"]["bad"] == 10

    def test_recovery_event_carries_tenant(self):
        monitor, events = _monitor()
        for _ in range(10):
            monitor.observe(1, error=True, tenant="t")
        for _ in range(30):
            monitor.observe(1, tenant="t")
        recovered = [attrs for name, attrs in events
                     if name == "telemetry.slo_recovered"]
        assert any(attrs["slo"] == "avail[t]" for attrs in recovered)


class TestCardinalityCap:
    def test_tenants_beyond_cap_fold_into_global(self):
        monitor, _ = _monitor(max_tenants=2)
        for tenant in ("a", "b", "c", "d"):
            monitor.observe(1, error=True, tenant=tenant)
        snapshot = monitor.snapshot()
        assert "avail[a]" in snapshot and "avail[b]" in snapshot
        assert "avail[c]" not in snapshot and "avail[d]" not in snapshot
        # Overflow traffic still counts globally.
        assert snapshot["avail"]["bad"] == 4

    def test_known_tenant_keeps_its_state_at_cap(self):
        monitor, _ = _monitor(max_tenants=1)
        monitor.observe(1, tenant="a")
        monitor.observe(1, error=True, tenant="b")  # over cap
        monitor.observe(1, error=True, tenant="a")
        assert monitor.snapshot()["avail[a]"]["bad"] == 1


class TestSnapshot:
    def test_tenant_entries_carry_identity(self):
        monitor, _ = _monitor()
        monitor.observe(1, error=True, tenant="gold")
        entry = monitor.snapshot()["avail[gold]"]
        assert entry["tenant"] == "gold"
        assert entry["total"] == 1 and entry["bad"] == 1

    def test_tenant_gauges_registered_lazily(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        monitor = SLOMonitor(
            [AVAIL], fast_window=10, slow_window=20, min_samples=4,
            metrics=registry,
        )
        monitor.observe(1, error=True, tenant="gold")
        gauges = registry.snapshot()["gauges"]
        assert "slo.avail.tenant.gold.fast_burn" in gauges
        assert "slo.avail.tenant.gold.breached" in gauges
