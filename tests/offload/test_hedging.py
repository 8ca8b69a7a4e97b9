"""Hedged-request tests: trigger timing, race outcomes, safety gates.

Staged entirely in-process: :class:`ThreadedStubBackend` gives each
target its own delay, so a slow primary and a fast secondary race
deterministically. The hedge trigger is seeded by feeding the kernel's
round-trip histogram directly (``recorder.kernel_offload``) — the same
``kernel.<kernel>.offload`` series the live trigger reads.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    BackendError,
    OffloadError,
    RemoteExecutionError,
)
from repro.ham import f2f
from repro.offload import (
    HedgePolicy,
    Hedger,
    ResiliencePolicy,
    Runtime,
)
from repro.offload.buffer import BufferPtr
from repro.offload.hedging import is_location_free
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.offload.stubs import ThreadedStubBackend

#: Fast backoff so retry paths never dominate test wall-clock.
FAST_RETRY = dict(backoff_base=1e-4, backoff_max=1e-3, jitter=0.0)

#: A hedge policy that triggers as soon as the profile allows.
EAGER_HEDGE = HedgePolicy(percentile=99.0, multiplier=1.0,
                          min_wait=0.0, min_samples=5)


def _seed_profile(kernel: str, seconds: float, samples: int = 10) -> None:
    """Make ``kernel``'s rolling p99 ≈ ``seconds``."""
    recorder = telemetry.enable()
    for _ in range(samples):
        recorder.kernel_offload(kernel).observe(seconds)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


# ---------------------------------------------------------------------------
# HedgePolicy / gates
# ---------------------------------------------------------------------------


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(percentile=0.0), dict(percentile=101.0), dict(multiplier=0.0),
         dict(min_wait=-1.0), dict(min_samples=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(OffloadError):
            HedgePolicy(**kwargs)

    def test_location_free(self):
        assert is_location_free(f2f(apps.add, 1, 2))
        ptr = BufferPtr(node=1, addr=0x1000, dtype_str="<f8", count=8)
        assert not is_location_free(f2f(apps.sum_buffer, ptr, 8))


class TestTrigger:
    def test_no_telemetry_means_no_hedge(self):
        assert Hedger(EAGER_HEDGE).delay_for("anything") is None

    def test_insufficient_samples_means_no_hedge(self):
        _seed_profile("thin", 0.01, samples=3)
        assert Hedger(EAGER_HEDGE).delay_for("thin") is None

    def test_trigger_tracks_percentile_and_floor(self):
        _seed_profile("steady", 0.05, samples=50)
        delay = Hedger(EAGER_HEDGE).delay_for("steady")
        assert delay is not None
        assert delay == pytest.approx(0.05, rel=0.30)
        floored = Hedger(
            HedgePolicy(min_wait=1.0, min_samples=5)
        ).delay_for("steady")
        assert floored == 1.0


# ---------------------------------------------------------------------------
# The race (unit, fake futures)
# ---------------------------------------------------------------------------


class _FakeFuture:
    """Duck-typed future: ready after ``ready_at``, then value or error."""

    def __init__(self, value=None, error=None, ready_after=0.0):
        self._value = value
        self._error = error
        self._ready_at = time.monotonic() + ready_after

    def test(self):
        return time.monotonic() >= self._ready_at

    def get(self, timeout=None):
        while not self.test():
            time.sleep(1e-4)
        if self._error is not None:
            raise self._error
        return self._value


class TestRace:
    def test_faster_arm_wins(self):
        hedger = Hedger(EAGER_HEDGE)
        primary = _FakeFuture(value="slow", ready_after=0.3)
        hedge = _FakeFuture(value="fast", ready_after=0.0)
        assert hedger._race(primary, hedge, None) == "fast"
        assert hedger.hedge_wins == 1

    def test_primary_win_does_not_count_as_hedge_win(self):
        hedger = Hedger(EAGER_HEDGE)
        primary = _FakeFuture(value="primary", ready_after=0.0)
        hedge = _FakeFuture(value="late", ready_after=0.3)
        assert hedger._race(primary, hedge, None) == "primary"
        assert hedger.hedge_wins == 0

    def test_remote_error_propagates_immediately(self):
        hedger = Hedger(EAGER_HEDGE)
        primary = _FakeFuture(
            error=RemoteExecutionError("app bug"), ready_after=0.0
        )
        hedge = _FakeFuture(value="never", ready_after=10.0)
        start = time.monotonic()
        with pytest.raises(RemoteExecutionError):
            hedger._race(primary, hedge, None)
        assert time.monotonic() - start < 1.0

    def test_transport_death_of_one_arm_keeps_race_alive(self):
        hedger = Hedger(EAGER_HEDGE)
        primary = _FakeFuture(error=BackendError("died"), ready_after=0.0)
        hedge = _FakeFuture(value="survivor", ready_after=0.05)
        assert hedger._race(primary, hedge, None) == "survivor"

    def test_both_arms_dead_raises_last_transport_error(self):
        hedger = Hedger(EAGER_HEDGE)
        primary = _FakeFuture(error=BackendError("p died"), ready_after=0.0)
        hedge = _FakeFuture(error=BackendError("h died"), ready_after=0.0)
        with pytest.raises(BackendError):
            hedger._race(primary, hedge, None)


# ---------------------------------------------------------------------------
# End-to-end through the runtime
# ---------------------------------------------------------------------------


def _hedging_runtime(delay, **policy_kwargs):
    backend = ThreadedStubBackend(num_targets=2, delay=delay)
    policy = ResiliencePolicy(hedge=EAGER_HEDGE, **FAST_RETRY, **policy_kwargs)
    return Runtime(backend, policy=policy), backend


class TestEndToEnd:
    def test_hedge_cuts_straggler_latency(self):
        functor = f2f(apps.add, 20, 22)
        _seed_profile(functor.type_name, 0.02)
        # Node 1 straggles; node 2 answers promptly.
        runtime, backend = _hedging_runtime({1: 1.5, 2: 0.0})
        start = time.monotonic()
        assert runtime.sync(1, functor, idempotent=True) == 42
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"hedge did not cut the tail ({elapsed:.2f}s)"
        stats = runtime.stats()
        assert stats["hedging"] == {"hedges": 1, "hedge_wins": 1}
        # Both targets really executed the duplicate (idempotent by
        # contract), but the caller saw exactly one result.
        assert [node for node, _ in backend.posted] == [1, 2]
        runtime.shutdown()

    def test_fast_primary_never_hedges(self):
        functor = f2f(apps.add, 1, 1)
        _seed_profile(functor.type_name, 0.2)
        runtime, backend = _hedging_runtime(0.0)
        assert runtime.sync(1, functor, idempotent=True) == 2
        assert runtime.stats()["hedging"]["hedges"] == 0
        assert len(backend.posted) == 1
        runtime.shutdown()

    def test_non_idempotent_never_hedges(self):
        functor = f2f(apps.add, 1, 2)
        _seed_profile(functor.type_name, 0.01)
        runtime, backend = _hedging_runtime({1: 0.3, 2: 0.0})
        assert runtime.sync(1, functor) == 3
        assert runtime.stats()["hedging"]["hedges"] == 0
        assert len(backend.posted) == 1
        runtime.shutdown()

    def test_cold_profile_never_hedges(self):
        # No profile seeding: the trigger has no data and stays out.
        runtime, backend = _hedging_runtime({1: 0.2, 2: 0.0})
        assert runtime.sync(1, f2f(apps.add, 3, 4), idempotent=True) == 7
        assert runtime.stats()["hedging"]["hedges"] == 0
        assert len(backend.posted) == 1
        runtime.shutdown()

    def test_two_node_topology_never_hedges(self):
        functor = f2f(apps.add, 5, 6)
        _seed_profile(functor.type_name, 0.01)
        backend = ThreadedStubBackend(num_targets=1, delay=0.3)
        policy = ResiliencePolicy(hedge=EAGER_HEDGE, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        assert runtime.sync(1, functor, idempotent=True) == 11
        assert runtime.stats()["hedging"]["hedges"] == 0
        runtime.shutdown()

    def test_hedge_transport_failure_does_not_fail_operation(self):
        functor = f2f(apps.echo, "ok")
        _seed_profile(functor.type_name, 0.01)

        class _HedgeRefusingBackend(ThreadedStubBackend):
            def post_invoke(self, node, functor):
                if node == 2:
                    raise BackendError("secondary refused the connection")
                return super().post_invoke(node, functor)

        backend = _HedgeRefusingBackend(num_targets=2, delay={1: 0.3})
        policy = ResiliencePolicy(hedge=EAGER_HEDGE, **FAST_RETRY)
        runtime = Runtime(backend, policy=policy)
        assert runtime.sync(1, functor, idempotent=True) == "ok"
        assert runtime.stats()["hedging"]["hedges"] == 0
        runtime.shutdown()

    def test_buffer_bound_functor_never_hedges(self):
        ptr = BufferPtr(node=1, addr=0x10, dtype_str="<f8", count=4)
        functor = f2f(apps.sum_buffer, ptr, 4)
        _seed_profile(functor.type_name, 0.01)
        runtime, backend = _hedging_runtime({1: 0.2, 2: 0.0})
        # The stub has no target memory, so execution fails remotely —
        # what matters here is that no duplicate was ever posted.
        with pytest.raises(OffloadError):
            runtime.sync(1, functor, idempotent=True)
        assert runtime.stats()["hedging"]["hedges"] == 0
        assert all(node == 1 for node, _ in backend.posted)
        runtime.shutdown()
