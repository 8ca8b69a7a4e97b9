"""One deadline, one budget: the resilient sync path must not re-arm
the full policy deadline on every retry or window wait.

Regression tests for the budget fix: ``Runtime.sync`` computes the
absolute expiry once, threads the *remaining* time into each attempt's
reply wait, and hands the same instant to the admission every offload
passes (``Runtime._offload``), which bounds the wait for a window slot by
it.
"""

import time

import pytest

from repro.backends import LocalBackend
from repro.errors import OffloadTimeoutError
from repro.ham import f2f
from repro.offload import Runtime
from repro.offload.resilience import ResiliencePolicy

from tests import apps


class _StallingBackend(LocalBackend):
    """Every reply wait of a sync times out; records the waits it got."""

    def __init__(self):
        super().__init__()
        self.waits: list[float | None] = []

    def sync_invoke(self, node, functor, timeout=None):
        self.waits.append(timeout)
        time.sleep(0.05)
        raise OffloadTimeoutError("reply never arrives")


class TestRetryBudget:
    def test_retries_share_one_deadline(self):
        deadline = 0.4
        policy = ResiliencePolicy(
            deadline=deadline, max_retries=10, failover=False,
            backoff_base=1e-4, backoff_max=1e-3, jitter=0.0,
            degraded_after=1, down_after=1000,
        )
        backend = _StallingBackend()
        runtime = Runtime(backend, policy=policy)
        try:
            start = time.monotonic()
            with pytest.raises(OffloadTimeoutError):
                runtime.sync(1, f2f(apps.empty_kernel), idempotent=True)
            elapsed = time.monotonic() - start
        finally:
            runtime.shutdown()
        # The whole resilient operation fits in roughly one deadline —
        # with per-attempt re-arming, 10 retries would take ~4 s.
        assert elapsed < 2 * deadline
        # Each attempt saw strictly less budget than the one before.
        assert backend.waits, "no attempt ever waited"
        assert backend.waits[0] <= deadline + 0.01
        for earlier, later in zip(backend.waits, backend.waits[1:]):
            assert later < earlier

    def test_without_deadline_waits_stay_unbounded(self):
        policy = ResiliencePolicy(
            max_retries=2, failover=False,
            backoff_base=1e-4, backoff_max=1e-3, jitter=0.0,
            degraded_after=1, down_after=1000,
        )
        backend = _StallingBackend()
        runtime = Runtime(backend, policy=policy)
        try:
            with pytest.raises(OffloadTimeoutError):
                runtime.sync(1, f2f(apps.empty_kernel), idempotent=True)
        finally:
            runtime.shutdown()
        # No policy deadline: every attempt waits without a timeout,
        # exactly the pre-budget behavior.
        assert backend.waits == [None, None, None]


def _policy(deadline):
    return ResiliencePolicy(
        deadline=deadline, max_retries=0, failover=False,
        degraded_after=1000, down_after=1000,
    )


class TestWindowBudget:
    """The slot wait of one offload, with the only slot taken."""

    @pytest.fixture
    def full(self):
        def start(policy=None):
            runtime = Runtime(LocalBackend(), policy=policy, window=1)
            runtime.window.acquire()  # occupy the only slot
            runtimes.append(runtime)
            return runtime

        runtimes = []
        yield start
        for runtime in runtimes:
            runtime.window.cancel()
            runtime.shutdown()

    def test_budget_bounds_window_wait(self, full):
        runtime = full()
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError, match="window full"):
            runtime._offload(
                1, f2f(apps.empty_kernel), None, time.monotonic() + 0.1
            )
        elapsed = time.monotonic() - start
        # No policy, so no static window timeout (wait forever): only
        # the offload's budget can have bounded this.
        assert 0.05 < elapsed < 1.0
        assert runtime.window.in_flight == 1  # the test's own slot

    def test_exhausted_budget_fails_fast(self, full):
        runtime = full()
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError, match="budget exhausted"):
            runtime._offload(
                1, f2f(apps.empty_kernel), None, time.monotonic() - 0.01
            )
        assert time.monotonic() - start < 0.05

    def test_budget_tighter_than_static_timeout_wins(self, full):
        runtime = full(_policy(30.0))
        start = time.monotonic()
        with pytest.raises(OffloadTimeoutError, match="window full"):
            runtime.sync(1, f2f(apps.empty_kernel), timeout=0.1)
        assert time.monotonic() - start < 1.0

    def test_no_scope_is_a_no_op(self):
        runtime = Runtime(LocalBackend())
        try:
            assert runtime.window.in_flight == 0
            assert runtime._offload(1, f2f(apps.add, 1, 2), None).get() == 3
            assert runtime.window.in_flight == 0
        finally:
            runtime.shutdown()
