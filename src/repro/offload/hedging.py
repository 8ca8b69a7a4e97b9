"""Hedged requests: tail-tolerant duplication of straggling offloads.

Retries (:class:`~repro.offload.resilience.ResiliencePolicy`)
react to *failure* — the first attempt must die before the second one
starts, so a straggler still costs a full deadline. Hedging reacts to
*slowness*: when a synchronous offload of an idempotent,
location-independent functor has waited longer than the kernel's rolling
tail latency (the p99 of ``kernel.<kernel>.offload``, the "deferred hedge"
of the Tail at Scale playbook), the same functor is posted to a second
healthy target and the first reply wins. The loser is simply abandoned:
the channel contract matches replies by correlation id, so the late
reply completes its own handle and is dropped — it can never be confused
with the winner, and the abandoned future never settles, so the kernel's
series and SLO windows count the logical offload exactly once.

Safety gates (all must hold, checked per call):

* the caller declared the operation ``idempotent=True`` — hedging *is* a
  duplicate execution;
* the functor is location-free: no :class:`~repro.offload.buffer.
  BufferPtr` argument binds it to one node's memory;
* the backend has at least two targets and the
  :class:`~repro.offload.resilience.HealthMonitor` can name a healthy
  secondary (the hedge must not pile onto a struggling node);
* the kernel's profile has enough samples for a trustworthy trigger —
  without data the hedger stays out of the way entirely.

Cost control: the trigger is the rolling ``percentile`` (default p99),
so at steady state only ~1 % of invokes spawn a duplicate; the
``multiplier`` and ``min_wait`` knobs push the trigger further out when
even that is too much.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import OffloadError, RemoteExecutionError
from repro.offload.buffer import BufferPtr
from repro.telemetry import recorder as telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ham.functor import Functor
    from repro.offload.future import Future
    from repro.offload.node import NodeId
    from repro.offload.qos import TenantContext
    from repro.offload.runtime import Runtime

__all__ = ["HedgePolicy", "Hedger"]

#: Poll interval bounds for first-of-two completion polling. The poll
#: starts tight (a hedge fires near the tail, replies are imminent) and
#: backs off to the ceiling to stay cheap on long stragglers.
_POLL_FLOOR = 50e-6
_POLL_CEILING = 1e-3


@dataclass(frozen=True)
class HedgePolicy:
    """Knobs governing when a straggling offload is duplicated.

    Parameters
    ----------
    percentile:
        Percentile of the kernel's rolling round-trip profile used as
        the hedge trigger — wait this long before duplicating (99.0
        bounds the duplicate-execution rate near 1 %).
    multiplier:
        Scale factor on the trigger (2.0 = hedge at twice the p99).
    min_wait:
        Floor on the trigger delay in seconds, so sub-millisecond
        kernels do not hedge on scheduler noise.
    min_samples:
        Completed offloads of the kernel required before the trigger is
        trusted; below it no hedge fires.
    """

    percentile: float = 99.0
    multiplier: float = 1.0
    min_wait: float = 0.001
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise OffloadError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.multiplier <= 0:
            raise OffloadError(
                f"multiplier must be positive, got {self.multiplier}"
            )
        if self.min_wait < 0:
            raise OffloadError(f"min_wait must be >= 0, got {self.min_wait}")
        if self.min_samples < 1:
            raise OffloadError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )


def is_location_free(functor: "Functor") -> bool:
    """Whether ``functor`` may execute on any target node.

    A functor carrying a :class:`BufferPtr` argument dereferences one
    specific node's memory — duplicating it to a different target would
    read garbage or trample foreign state, so such functors never hedge
    (mirroring the failover rule of the retry path).
    """
    for arg in functor.args:
        if isinstance(arg, BufferPtr):
            return False
    for _name, value in functor.kwargs:
        if isinstance(value, BufferPtr):
            return False
    return True


class Hedger:
    """Issues hedge duplicates for straggling synchronous offloads.

    One instance per runtime, stateless apart from counters; the trigger
    delay is read from the kernel's live round-trip histogram on every
    call, so it tracks traffic shifts without explicit feeds.
    """

    def __init__(self, policy: HedgePolicy) -> None:
        self.policy = policy
        self.hedges = 0
        self.hedge_wins = 0

    # -- trigger ----------------------------------------------------------
    def delay_for(self, kernel: str) -> float | None:
        """Seconds to wait before hedging ``kernel``, or ``None``.

        ``None`` — no telemetry or not enough round trips seen — means
        "do not hedge"; the hedger fails static rather than guessing.
        """
        trigger = telemetry.kernel_percentile(
            kernel, self.policy.percentile, self.policy.min_samples)
        if trigger is None:
            return None
        return max(self.policy.min_wait, trigger * self.policy.multiplier)

    # -- execution --------------------------------------------------------
    def await_hedged(
        self,
        runtime: "Runtime",
        future: "Future",
        functor: "Functor",
        primary: "NodeId",
        tenant: "TenantContext | None",
        deadline: float | None,
    ) -> Any:
        """Await ``future``, duplicating to a second target if it lags.

        The caller has already validated the safety gates (idempotent,
        location-free, secondary available); this method owns the timing:
        poll the primary until the hedge trigger, then race primary
        against a duplicate on the healthiest other target, first
        successful settle wins. Transport errors on one arm leave the
        race to the other arm; :class:`RemoteExecutionError` propagates
        immediately from either arm (the application failed — the
        transport worked, and the twin would deterministically fail the
        same way). With both arms dead the primary's error propagates.
        """
        delay = self.delay_for(functor.type_name)
        if delay is None:
            return future.get(timeout=deadline)
        overall = None if deadline is None else time.monotonic() + deadline
        if not self._poll(future, min(delay, deadline) if deadline is not None
                          else delay):
            hedge_future = self._issue_hedge(
                runtime, functor, primary, tenant, overall
            )
            if hedge_future is not None:
                return self._race(future, hedge_future, overall)
        # Trigger never fired a duplicate (fast reply, or no secondary):
        # plain blocking get for whatever deadline remains.
        return future.get(timeout=self._remaining(overall))

    def _poll(self, future: "Future", window: float) -> bool:
        """Poll ``future`` for up to ``window`` seconds; True if done."""
        deadline = time.monotonic() + window
        pause = _POLL_FLOOR
        while True:
            if future.test():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(pause)
            pause = min(_POLL_CEILING, pause * 2)

    def _issue_hedge(
        self,
        runtime: "Runtime",
        functor: "Functor",
        primary: "NodeId",
        tenant: "TenantContext | None",
        expiry: float | None,
    ) -> "Future | None":
        """Post the duplicate to the healthiest target besides the
        primary, for the primary's tenant and within its budget."""
        assert runtime.monitor is not None
        candidates = runtime.monitor.preferred(
            runtime.targets(), exclude=[primary]
        )
        if not candidates:
            return None
        secondary = candidates[0]
        try:
            hedge_future = runtime._offload(secondary, functor, tenant, expiry)
        except OffloadError:
            # Posting the hedge failed (circuit opened between the
            # preferred() call and the post, transport refused): the
            # primary is still in flight — a failed hedge must never
            # fail the operation.
            return None
        self.hedges += 1
        telemetry.event(
            "resilience.hedge", category="resilience",
            functor=functor.type_name, primary=primary, secondary=secondary,
            trigger_s=self.delay_for(functor.type_name),
        )
        return hedge_future

    def _race(
        self,
        primary_future: "Future",
        hedge_future: "Future",
        overall: float | None,
    ) -> Any:
        """First successful settle of two in-flight twins wins.

        The loser is abandoned un-settled: its reply (if one ever comes)
        completes the backend handle via correlation-id matching and is
        dropped there, and because ``Future._settle`` never runs for it,
        ``complete_offload`` fires exactly once for the logical offload.
        """
        arms: list[tuple[str, "Future"]] = [
            ("primary", primary_future), ("hedge", hedge_future),
        ]
        last_error: OffloadError | None = None
        pause = _POLL_FLOOR
        while len(arms) > 1:
            for name, arm in list(arms):
                if not arm.test():
                    continue
                try:
                    value = arm.get()
                except RemoteExecutionError:
                    # The application raised on the target:
                    # deterministic — do not wait for the twin to fail
                    # identically.
                    raise
                except OffloadError as exc:
                    # This arm's transport died; the race continues on
                    # the surviving arm alone.
                    arms.remove((name, arm))
                    last_error = exc
                    continue
                if name == "hedge":
                    self.hedge_wins += 1
                return value
            if not arms:
                break
            if overall is not None and time.monotonic() >= overall:
                # Both arms outlived the caller's deadline; report it on
                # the primary so its future carries the timeout record.
                return primary_future.get(timeout=0)
            time.sleep(pause)
            pause = min(_POLL_CEILING, pause * 2)
        if arms:
            # One arm left: no point polling, block on it directly.
            return arms[0][1].get(timeout=self._remaining(overall))
        # Both arms died on transport errors: surface the last one.
        assert last_error is not None
        raise last_error

    @staticmethod
    def _remaining(overall: float | None) -> float | None:
        if overall is None:
            return None
        return max(0.0, overall - time.monotonic())

    def snapshot(self) -> dict[str, int]:
        """Hedge counters for ``Runtime.stats()``."""
        return {"hedges": self.hedges, "hedge_wins": self.hedge_wins}
