"""Fan-out backend: N single-target backends behind one node space.

The TCP backend connects the host to exactly one server process; the
resilience layer's multi-target failover wants *several* live
targets. :class:`FanoutBackend` composes N single-target backends
(typically one :class:`~repro.backends.tcp.TcpBackend` per forked
server) into one backend whose node space is ``0`` (host) plus nodes
``1..N`` — outer node ``i`` maps to inner backend ``i-1``'s node ``1``.

One window, N transports: the runtime admits every offload through its
own in-flight window before the fan-out routes it, so admission,
backpressure and first-come-first-served slot hand-off are enforced
over the *union* of traffic, exactly as a single pipelined channel
would. Completions on any inner transport
free capacity for posts to any other.

No receiver threads, N connections: each inner transport's replies are
read by whoever waits for one of them — a blocking caller or an
awaiting asyncio loop (a handle names the member that posted it) — and
a tcp member's held frames leave when a waiter drives that member: the
fan-out starts no thread.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backends.base import Backend, InvokeHandle
from repro.errors import BackendError
from repro.offload.buffer import BufferPtr
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId

__all__ = ["FanoutBackend"]


class FanoutBackend(Backend):
    """Compose single-target backends into one multi-target node space."""

    name = "fanout"

    def __init__(self, inners: Sequence[Backend]) -> None:
        if not inners:
            raise BackendError("FanoutBackend needs at least one inner backend")
        self._inners: list[Backend] = list(inners)

    def set_default_timeout(self, seconds: float | None) -> None:
        for inner in self._inners:
            inner.set_default_timeout(seconds)

    # -- routing -----------------------------------------------------------
    def _route(self, node: NodeId) -> Backend:
        self.check_target(node)
        return self._inners[node - 1]

    # -- topology ----------------------------------------------------------
    def num_nodes(self) -> int:
        return 1 + len(self._inners)

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", "fanout backend host")
        inner = self._route(node)
        base = inner.descriptor(1)
        return NodeDescriptor(node, base.name, base.device_type, base.description)

    # -- invocation --------------------------------------------------------
    def post_invoke(self, node: NodeId, functor: Any) -> InvokeHandle:
        # The inner backend binds the handle to itself, so drive and
        # completion route naturally.
        return self._route(node).post_invoke(1, functor)

    def drive(
        self, handle: InvokeHandle, *, blocking: bool,
        timeout: float | None = None,
    ) -> None:
        if handle.backend is self:  # pragma: no cover - defensive
            raise BackendError("fanout handles are bound to inner backends")
        handle.backend.drive(handle, blocking=blocking, timeout=timeout)

    # -- memory ------------------------------------------------------------
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        return self._route(node).alloc_buffer(1, nbytes)

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self._route(node).free_buffer(1, addr)

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        self._route(node).write_buffer(1, addr, data)

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        return self._route(node).read_buffer(1, addr, nbytes)

    def resolve_buffer(self, node: NodeId, ptr: BufferPtr) -> np.ndarray:
        return self._route(node).resolve_buffer(1, ptr)

    # -- health ------------------------------------------------------------
    def ping(self, node: NodeId) -> float:
        return self._route(node).ping(1)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "targets": len(self._inners),
            "inner": [inner.stats() for inner in self._inners],
        }

    def introspect_target(
        self, timeout: float | None = None
    ) -> dict[str, Any]:
        """Aggregate introspection over every member that reports state.

        Returns the transport-agnostic shape with summed counts plus a
        ``targets`` list holding each inner's full payload (keyed by
        outer node id), so per-target drill-down survives the
        aggregation.
        """
        payloads: list[dict[str, Any]] = []
        for index, inner in enumerate(self._inners):
            try:
                state = inner.introspect_target(timeout=timeout)
            except BackendError:
                state = {"role": "target", "transport": inner.name,
                         "error": "unreachable"}
            if state is None:
                continue
            payload = dict(state)
            payload["node"] = index + 1
            payloads.append(payload)
        return {
            "role": "target",
            "transport": self.name,
            "pid": 0,
            "messages_executed": sum(
                p.get("messages_executed", 0) for p in payloads
            ),
            "live_buffers": sum(p.get("live_buffers", 0) for p in payloads),
            "rings": None,
            "targets": payloads,
        }

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        errors: list[BaseException] = []
        for inner in self._inners:
            try:
                inner.shutdown()
            except BaseException as exc:  # noqa: BLE001 - best effort
                errors.append(exc)
        if errors:
            raise errors[0]
