"""Deterministic fault injection: a chaos proxy around any backend.

The paper's DMA protocol has no protection against a crashing peer
(Sec. IV-B hands that problem to the framework above); the resilience
layer (:mod:`repro.offload.resilience`) is that framework, and this
module is its test harness. :class:`FaultInjectingBackend` wraps any
:class:`~repro.backends.base.Backend` and injects *drops*, *delays*,
*disconnects* and *corrupt frames* at operation boundaries, by a
schedule that is a pure function of the seed — the same seed and the
same operation sequence replay the exact same faults, so chaos tests
are debuggable instead of flaky.

Faults surface as typed :class:`~repro.errors.ReproError` subclasses:

========== =====================================================
drop       :class:`~repro.errors.InjectedFaultError` (one op lost)
delay      the op stalls, then proceeds normally
disconnect :class:`~repro.errors.InjectedFaultError`; the proxy is
           dead until :meth:`FaultInjectingBackend.reconnect`
corrupt    :class:`~repro.errors.CorruptFrameError`
========== =====================================================
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.backends.base import Backend, InvokeHandle
from repro.errors import BackendError, CorruptFrameError, InjectedFaultError
from repro.offload.buffer import BufferPtr
from repro.offload.node import NodeDescriptor, NodeId
from repro.telemetry import recorder as telemetry

__all__ = ["FaultInjectingBackend", "FaultEvent", "FAULT_KINDS"]

#: Injectable fault kinds, in cumulative-probability order.
FAULT_KINDS = ("drop", "delay", "disconnect", "corrupt")


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the fault log: which op drew which fault."""

    index: int
    op: str
    kind: str
    delay: float = 0.0


class FaultInjectingBackend(Backend):
    """Proxy backend that injects scheduled faults into every operation.

    Parameters
    ----------
    inner:
        The real backend to forward to.
    seed:
        Seed of the fault schedule. Determinism contract: two proxies
        with equal seeds, rates and operation sequences produce
        identical :attr:`fault_log` entries.
    drop_rate / delay_rate / disconnect_rate / corrupt_rate:
        Per-operation probabilities (cumulative sum must be <= 1).
    delay_range:
        ``(lo, hi)`` seconds for injected delays, drawn from the same
        seeded RNG.
    schedule:
        Optional explicit overrides: ``{op_index: kind}`` with kind in
        :data:`FAULT_KINDS` or ``"none"``. Indices count every forwarded
        operation from 0. Scheduled entries bypass the RNG draw (the RNG
        is still advanced identically, preserving determinism of the
        remaining schedule).
    sleep:
        Injectable sleep for delay faults (tests pass a stub).
    """

    name = "faulty"

    def __init__(
        self,
        inner: Backend,
        *,
        seed: int = 0,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        disconnect_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_range: tuple[float, float] = (0.001, 0.01),
        schedule: dict[int, str] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        total = drop_rate + delay_rate + disconnect_rate + corrupt_rate
        if total > 1.0:
            raise BackendError(f"fault rates sum to {total:g} > 1")
        self.inner = inner
        self.seed = seed
        self._rates = (drop_rate, delay_rate, disconnect_rate, corrupt_rate)
        self._delay_range = delay_range
        self._schedule = dict(schedule or {})
        bad = {k for k in self._schedule.values()} - set(FAULT_KINDS) - {"none"}
        if bad:
            raise BackendError(f"unknown scheduled fault kinds: {sorted(bad)}")
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._op_index = 0
        self._disconnected = False
        #: Every fault drawn so far (clean ops are not logged).
        self.fault_log: list[FaultEvent] = []

    # -- the schedule ---------------------------------------------------------
    def _draw(self, op: str) -> FaultEvent | None:
        """Advance the schedule one op; return the fault to inject, if any."""
        index = self._op_index
        self._op_index += 1
        # Always burn the same number of RNG draws per op, so explicit
        # schedule overrides do not shift the faults of later ops.
        roll = self._rng.random()
        duration = self._rng.uniform(*self._delay_range)
        if index in self._schedule:
            kind = self._schedule[index]
            if kind == "none":
                return None
        else:
            kind = "none"
            cumulative = 0.0
            for candidate, rate in zip(FAULT_KINDS, self._rates):
                cumulative += rate
                if roll < cumulative:
                    kind = candidate
                    break
            if kind == "none":
                return None
        event = FaultEvent(
            index, op, kind, duration if kind == "delay" else 0.0
        )
        self.fault_log.append(event)
        # Injected faults show up in traces as instant events, so a
        # timeline view places each chaos injection against the spans of
        # the operation it hit.
        telemetry.event(
            "fault.injected", category="fault",
            kind=kind, op=op, index=index, delay=event.delay,
        )
        return event

    def _apply(self, op: str) -> None:
        """Consult the schedule for ``op``; raise or stall accordingly."""
        if self._disconnected:
            raise BackendError(
                "fault-injected connection is down (call reconnect())"
            )
        event = self._draw(op)
        if event is None:
            return
        if event.kind == "delay":
            self._sleep(event.delay)
        elif event.kind == "drop":
            raise InjectedFaultError(f"injected drop of {op} (op #{event.index})")
        elif event.kind == "disconnect":
            self._disconnected = True
            raise InjectedFaultError(
                f"injected disconnect at {op} (op #{event.index})"
            )
        elif event.kind == "corrupt":
            raise CorruptFrameError(
                f"injected corrupt frame in {op} (op #{event.index})"
            )

    def reconnect(self) -> None:
        """Clear an injected disconnect (the schedule keeps advancing)."""
        self._disconnected = False

    @property
    def ops_forwarded(self) -> int:
        """Operations that reached the schedule so far."""
        return self._op_index

    # -- topology (never faulted: metadata, not transport) -------------------
    def num_nodes(self) -> int:
        return self.inner.num_nodes()

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        return self.inner.descriptor(node)

    # -- faulted transport operations ----------------------------------------
    def post_invoke(self, node: NodeId, functor: Any) -> InvokeHandle:
        self._apply("invoke")
        return self.inner.post_invoke(node, functor)

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        self.inner.drive(handle, blocking=blocking, timeout=timeout)

    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self._apply("alloc")
        return self.inner.alloc_buffer(node, nbytes)

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self._apply("free")
        self.inner.free_buffer(node, addr)

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        self._apply("write")
        self.inner.write_buffer(node, addr, data)

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self._apply("read")
        return self.inner.read_buffer(node, addr, nbytes)

    def ping(self, node: NodeId) -> float:
        self._apply("ping")
        return self.inner.ping(node)

    # -- pass-throughs --------------------------------------------------------
    def resolve_buffer(self, node: NodeId, ptr: BufferPtr) -> np.ndarray:
        return self.inner.resolve_buffer(node, ptr)

    def fetch_target_telemetry(self, timeout: float | None = None,
                               align: bool = True) -> list:
        """Forward a telemetry pull to the wrapped backend (never faulted).

        Observability must not be chaos-tested away: the pull bypasses
        the fault schedule. Returns ``[]`` when the inner backend has no
        target-side telemetry (e.g. the local backend).
        """
        fetch = getattr(self.inner, "fetch_target_telemetry", None)
        if fetch is None:
            return []
        return fetch(timeout=timeout, align=align)

    def set_default_timeout(self, seconds: float | None) -> None:
        self.inner.set_default_timeout(seconds)

    def per_target_stats(self) -> dict[NodeId, dict[str, Any]]:
        """Scoreboard feed comes from the real transport (never faulted)."""
        return self.inner.per_target_stats()

    def stats(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        for event in self.fault_log:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "backend": self.name,
            "seed": self.seed,
            "ops_forwarded": self.ops_forwarded,
            "faults_injected": len(self.fault_log),
            "faults_by_kind": counts,
            "inner": self.inner.stats(),
        }

    def shutdown(self) -> None:
        # Teardown always reaches the inner backend, even "disconnected":
        # chaos must never leak server processes.
        self.inner.shutdown()
