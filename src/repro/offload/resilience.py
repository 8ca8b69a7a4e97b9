"""Resilience layer for the offload runtime: deadlines, retries, health.

The paper's DMA protocol deliberately trades the safety of the
VEOS-mediated path for raw speed (Sec. IV-B) and leaves crash handling
to "the framework above". This module is that framework: a declarative
:class:`ResiliencePolicy` (per-operation deadline, bounded retries with
seeded exponential backoff) and a per-node :class:`HealthMonitor`
driving a ``healthy -> degraded -> down`` state machine off ``OP_PING``
heartbeats and observed transport failures, with a circuit breaker that
fails fast on down nodes instead of burning a full deadline each time.

What is retried and what is not
-------------------------------

Only *transport* failures (:class:`~repro.errors.BackendError`,
:class:`~repro.errors.OffloadTimeoutError`) are retry candidates, and
only when the caller declared the operation idempotent — the runtime
cannot know whether a functor that timed out also executed.
:class:`~repro.errors.RemoteExecutionError` means the target ran the
functor and the *application* raised; that is a success of the transport
and is never retried.

Everything here is deterministic under a fixed seed and an injected
clock, so fault-injection tests replay exactly.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import CircuitOpenError, OffloadError
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import Backend
    from repro.offload.node import NodeId

__all__ = ["NodeHealth", "ResiliencePolicy", "HealthMonitor"]

#: Gauge encoding of :class:`NodeHealth` for the metrics snapshot
#: (``health.node_state.<node>``): 0 healthy, 1 degraded, 2 down.
_HEALTH_GAUGE = {"healthy": 0, "degraded": 1, "down": 2}


class NodeHealth(enum.Enum):
    """Observed health of one offload target."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs governing deadlines, retries and health thresholds.

    Parameters
    ----------
    deadline:
        Per-operation deadline in seconds (wall clock on functional
        backends, simulated seconds on the sim backends). ``None``
        disables deadlines — operations may block indefinitely, as in
        the paper's raw protocol.
    max_retries:
        Additional attempts after the first failure of an operation the
        caller declared idempotent. ``0`` disables retries.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff: attempt ``k`` sleeps
        ``min(backoff_max, backoff_base * backoff_factor**k)`` seconds,
        scaled by jitter.
    jitter:
        Fractional jitter: each delay is multiplied by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]`` using the seeded RNG,
        de-synchronising retry storms while staying reproducible.
    seed:
        Seed of the RNG used for jitter (and nothing else).
    failover:
        Whether idempotent operations may be re-posted to a healthy peer
        node after the original target fails (multi-target backends).
        A functor with a :class:`~repro.offload.buffer.BufferPtr`
        argument is retried on its own node regardless.
    degraded_after / down_after:
        Consecutive transport failures after which a node is marked
        DEGRADED resp. DOWN. Any success resets the node to HEALTHY.
    probe_interval:
        Seconds a DOWN node's circuit stays open before one half-open
        probe operation is allowed through to test recovery.
    """

    deadline: float | None = None
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    failover: bool = True
    degraded_after: int = 1
    down_after: int = 3
    probe_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise OffloadError(f"deadline must be positive, got {self.deadline}")
        if self.max_retries < 0:
            raise OffloadError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.jitter <= 1:
            raise OffloadError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.degraded_after < 1 or self.down_after < self.degraded_after:
            raise OffloadError(
                "need 1 <= degraded_after <= down_after, got "
                f"{self.degraded_after}/{self.down_after}"
            )

    def rng(self) -> random.Random:
        """A fresh RNG seeded with :attr:`seed` (jitter determinism)."""
        return random.Random(self.seed)

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before retry ``attempt`` (0-based), with jitter."""
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base

    def delays(self, rng: random.Random | None = None) -> Iterable[float]:
        """The full retry-delay schedule (``max_retries`` entries)."""
        rng = rng or self.rng()
        return [self.delay_for(k, rng) for k in range(self.max_retries)]


@dataclass
class _NodeRecord:
    health: NodeHealth = NodeHealth.HEALTHY
    consecutive_failures: int = 0
    successes: int = 0
    failures: int = 0
    last_failure_at: float | None = None
    last_probe_at: float | None = None
    last_ping_latency: float | None = None


class HealthMonitor:
    """Per-node health state machine plus circuit breaker.

    Fed from two sources: observed outcomes of regular offload traffic
    (:meth:`record_success` / :meth:`record_failure`) and explicit
    ``OP_PING`` heartbeats (:meth:`heartbeat`). State transitions:

    * ``HEALTHY -> DEGRADED`` after ``policy.degraded_after`` consecutive
      transport failures;
    * ``DEGRADED -> DOWN`` after ``policy.down_after``;
    * any success returns the node straight to ``HEALTHY``.

    The circuit breaker (:meth:`allow`) admits all traffic to HEALTHY and
    DEGRADED nodes; a DOWN node's circuit is open and :meth:`allow`
    returns ``False``, except for one half-open probe every
    ``policy.probe_interval`` seconds.

    The clock is injectable so tests replay deterministically.
    """

    def __init__(
        self,
        policy: ResiliencePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._clock = clock
        self._nodes: dict[NodeId, _NodeRecord] = {}

    def _record(self, node: NodeId) -> _NodeRecord:
        record = self._nodes.get(node)
        if record is None:
            record = self._nodes[node] = _NodeRecord()
        return record

    # -- observations ---------------------------------------------------------
    def record_success(self, node: NodeId, latency: float | None = None) -> None:
        """A transport-level success (including remote application errors)."""
        record = self._record(node)
        record.successes += 1
        record.consecutive_failures = 0
        previous = record.health
        record.health = NodeHealth.HEALTHY
        if previous is not NodeHealth.HEALTHY:
            self._transition(node, previous, NodeHealth.HEALTHY)
        if latency is not None:
            record.last_ping_latency = latency
        self._export_gauges(node, record)

    def record_failure(self, node: NodeId) -> NodeHealth:
        """A transport-level failure; returns the node's new health."""
        record = self._record(node)
        record.failures += 1
        record.consecutive_failures += 1
        record.last_failure_at = self._clock()
        previous = record.health
        if record.consecutive_failures >= self.policy.down_after:
            record.health = NodeHealth.DOWN
        elif record.consecutive_failures >= self.policy.degraded_after:
            record.health = NodeHealth.DEGRADED
        if record.health is not previous:
            self._transition(node, previous, record.health)
        self._export_gauges(node, record)
        return record.health

    def _export_gauges(self, node: NodeId, record: _NodeRecord) -> None:
        """Mirror one node's failover state onto the metrics snapshot.

        ``health.node_state.<node>`` (0 healthy / 1 degraded / 2 down)
        and ``health.consecutive_failures.<node>`` land in a crash
        bundle's ``metrics.json``, so it shows circuit state without
        parsing the event log.
        """
        telemetry.gauge(
            f"health.node_state.{node}", _HEALTH_GAUGE[record.health.value]
        )
        telemetry.gauge(
            f"health.consecutive_failures.{node}", record.consecutive_failures
        )

    def _transition(
        self, node: NodeId, previous: NodeHealth, new: NodeHealth
    ) -> None:
        """Publish one health state change to the telemetry stream."""
        telemetry.event(
            "health.transition", category="health",
            node=node, previous=previous.value, new=new.value,
        )
        telemetry.count("health.transitions")
        if new is NodeHealth.DOWN:
            telemetry.count("health.circuit_opened")
            # A node going DOWN is the host-side face of peer death:
            # capture the evidence while the in-flight table still
            # shows what was stranded on it.
            flightrecorder.trigger("node_down", node=node)

    # -- queries --------------------------------------------------------------
    def health(self, node: NodeId) -> NodeHealth:
        """Current health of ``node`` (unknown nodes are HEALTHY)."""
        record = self._nodes.get(node)
        return record.health if record is not None else NodeHealth.HEALTHY

    def allow(self, node: NodeId) -> bool:
        """Circuit breaker: may traffic be sent to ``node`` right now?

        DOWN nodes are fenced; every ``policy.probe_interval`` seconds a
        single half-open probe is admitted (and stamps the probe clock,
        so concurrent callers do not all pile onto a dead node).
        """
        record = self._nodes.get(node)
        if record is None or record.health is not NodeHealth.DOWN:
            return True
        now = self._clock()
        anchor = record.last_probe_at
        if anchor is None:
            anchor = record.last_failure_at if record.last_failure_at is not None else now
        if now - anchor >= self.policy.probe_interval:
            record.last_probe_at = now
            telemetry.event("health.probe", category="health", node=node)
            return True
        return False

    def check(self, node: NodeId) -> None:
        """Raise :class:`CircuitOpenError` unless :meth:`allow` passes."""
        if not self.allow(node):
            telemetry.count("health.circuit_rejections")
            raise CircuitOpenError(
                f"node {node} is down (circuit open; next probe in "
                f"<= {self.policy.probe_interval:g} s)"
            )

    def preferred(
        self, candidates: Sequence[NodeId], exclude: Iterable[NodeId] = ()
    ) -> list[NodeId]:
        """Failover candidates, healthiest first, fenced nodes last.

        HEALTHY nodes in input order, then DEGRADED, then DOWN nodes
        whose circuit currently admits a probe. Nodes in ``exclude``
        (typically targets already tried) are omitted entirely.
        """
        excluded = set(exclude)
        ranked: dict[NodeHealth, list[NodeId]] = {h: [] for h in NodeHealth}
        for node in candidates:
            if node in excluded:
                continue
            ranked[self.health(node)].append(node)
        ordered = ranked[NodeHealth.HEALTHY] + ranked[NodeHealth.DEGRADED]
        ordered += [n for n in ranked[NodeHealth.DOWN] if self.allow(n)]
        return ordered

    # -- heartbeats -----------------------------------------------------------
    def heartbeat(
        self, backend: "Backend", nodes: Iterable[NodeId] | None = None
    ) -> dict[NodeId, float | None]:
        """Ping targets via the backend; record outcomes; return latencies.

        ``None`` latency marks a failed ping. ``nodes`` defaults to every
        target of the backend.
        """
        if nodes is None:
            nodes = range(1, backend.num_nodes())
        results: dict[NodeId, float | None] = {}
        for node in nodes:
            try:
                latency = backend.ping(node)
            except OffloadError:
                self.record_failure(node)
                results[node] = None
            else:
                self.record_success(node, latency=latency)
                results[node] = latency
        return results

    # -- introspection --------------------------------------------------------
    def snapshot(self) -> dict[NodeId, dict]:
        """Per-node counters and state, for ``Runtime.stats()``."""
        return {
            node: {
                "health": record.health.value,
                "consecutive_failures": record.consecutive_failures,
                "failures": record.failures,
                "successes": record.successes,
                "last_ping_latency": record.last_ping_latency,
            }
            for node, record in self._nodes.items()
        }
