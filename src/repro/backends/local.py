"""In-process communication backend.

Targets are separate :class:`~repro.ham.registry.ProcessImage` instances
living in the host process. Messages are *really* serialized, moved and
deserialized — the full wire path is exercised — but execution happens
synchronously at post time, so every handle completes immediately.
The async surface degenerates accordingly: a done-callback attached to
a local handle fires at once (the handle is already complete), and an
``await`` on a local future resolves without suspending — nothing polls,
same semantics.

This backend is the debugging/portability baseline: the same application
runs here, over TCP, and on the simulated SX-Aurora protocols without
modification (paper Sec. V end).
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.backends._target_memory import HostedBuffers
from repro.backends.base import Backend, InvokeHandle
from repro.errors import BackendError
from repro.ham.execution import execute_message, sized_invoke_parts, unpack_result
from repro.ham.functor import Functor
from repro.ham.registry import Catalog, ProcessImage
from repro.offload.buffer import BufferPtr
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.telemetry.recorder import TRANSPORT, OffloadTrace

__all__ = ["LocalBackend"]


class _Target:
    """One in-process offload target: an image plus its buffer table."""

    def __init__(self, node: NodeId, catalog: Catalog | None) -> None:
        self.node = node
        self.image = ProcessImage(f"local-target-{node}", catalog)
        self.buffers = HostedBuffers()
        self.messages_executed = 0

    def resolve(self, arg: object) -> object:
        """Target-side argument resolution: buffer pointers become views."""
        if isinstance(arg, BufferPtr):
            if arg.node != self.node:
                raise BackendError(
                    f"buffer of node {arg.node} dereferenced on node {self.node}"
                )
            return self.buffers.view(arg)
        return arg


class LocalBackend(Backend):
    """Synchronous in-process backend with ``num_targets`` targets."""

    name = "local"

    def __init__(self, num_targets: int = 1, catalog: Catalog | None = None) -> None:
        if num_targets < 1:
            raise BackendError(f"need at least one target, got {num_targets}")
        self.host_image = ProcessImage("local-host", catalog)
        self._targets = {
            node: _Target(node, catalog) for node in range(1, num_targets + 1)
        }
        self._msg_id = 0
        self._alive = True

    # -- topology ------------------------------------------------------------
    def num_nodes(self) -> int:
        return 1 + len(self._targets)

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", "local backend host")
        self.check_target(node)
        return NodeDescriptor(node, f"local{node}", "cpu", "in-process target")

    # -- invocation -----------------------------------------------------------
    def _execute(
        self, node: NodeId, functor: Functor
    ) -> tuple[bytes, OffloadTrace | None]:
        """Run ``functor`` on ``node``'s image; the raw reply message and
        the offload's record (``None``: untraced)."""
        if not self._alive:  # _check_alive(), inline
            raise BackendError("local backend is shut down")
        if node not in self._targets:  # check_target(), inline
            self.check_target(node)
        target = self._targets[node]
        self._msg_id += 1
        parts, trace = sized_invoke_parts(self.host_image, functor, self._msg_id)
        invoke = b"".join(parts)
        if trace is None:
            reply, _keep_running = execute_message(
                target.image, invoke, target.resolve
            )
        else:
            # Telemetry phase ``offload.transport``: for the in-process
            # backend the "wire" is a synchronous call, so transport time
            # is the handoff around the nested ``offload.execute`` span.
            trace.node = node
            reply, _keep_running = trace.run(
                TRANSPORT, trace.stack, execute_message,
                target.image, invoke, target.resolve,
            )
        target.messages_executed += 1
        return reply, trace

    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        reply, trace = self._execute(node, functor)
        handle = InvokeHandle(self, label=functor.type_name)
        handle.trace = trace
        handle.complete_with_reply(reply)
        return handle

    def sync_invoke(
        self, node: NodeId, functor: Functor, timeout: float | None = None
    ) -> Any:
        """:meth:`post_invoke` and its value in one call (``timeout`` is
        moot: the target runs on the caller's thread)."""
        reply, trace = self._execute(node, functor)
        return unpack_result(reply, trace)[1]

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        # Everything completes at post time, so deadlines are moot.
        if blocking and not handle.completed:  # pragma: no cover - defensive
            raise BackendError("local backend handle left incomplete")

    # -- memory ------------------------------------------------------------------
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self._check_alive()
        self.check_target(node)
        return self._targets[node].buffers.alloc(nbytes)

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self._check_alive()
        self.check_target(node)
        self._targets[node].buffers.free(addr)

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        self._check_alive()
        self.check_target(node)
        self._targets[node].buffers.write(addr, data)

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self._check_alive()
        self.check_target(node)
        return self._targets[node].buffers.read(addr, nbytes)

    # -- target-side resolution ------------------------------------------------------
    def resolve_buffer(self, node: NodeId, ptr: BufferPtr) -> np.ndarray:
        self.check_target(node)
        return self._targets[node].buffers.view(ptr)

    # -- lifecycle ----------------------------------------------------------------------
    def messages_executed(self, node: NodeId) -> int:
        """Number of messages a target has executed (for tests)."""
        self.check_target(node)
        return self._targets[node].messages_executed

    def stats(self) -> dict:
        """Execution counters per in-process target."""
        return {
            "backend": self.name,
            "messages_executed": sum(
                t.messages_executed for t in self._targets.values()
            ),
            "targets": {
                node: {
                    "messages_executed": target.messages_executed,
                    "live_buffers": target.buffers.live_count,
                }
                for node, target in self._targets.items()
            },
        }

    def introspect_target(self, timeout: float | None = None) -> dict:
        """Live target state, in the transport-agnostic introspection shape.

        The in-process analogue of the remote backends' ``OP_INTROSPECT``
        roundtrip: execution is synchronous. ``timeout`` is accepted for
        signature parity and ignored.
        """
        return {
            "role": "target",
            "transport": self.name,
            "pid": os.getpid(),
            "messages_executed": sum(
                t.messages_executed for t in self._targets.values()
            ),
            "live_buffers": sum(
                t.buffers.live_count for t in self._targets.values()
            ),
            "rings": None,
        }

    def shutdown(self) -> None:
        self._alive = False

    def _check_alive(self) -> None:
        if not self._alive:
            raise BackendError("local backend is shut down")
