"""Test backends with controllable timing for QoS and window tests.

The functional backends are either synchronous (local: completes at post
time, so the window never fills) or need forked server processes (tcp).
:class:`ThreadedStubBackend` sits in between: every invoke is executed
on a worker thread after a configurable per-node delay, so tests can
fill the in-flight window deterministically, observe the order of
grants, and hold one node slow while another answers — all in-process.
:class:`DrivenStubBackend` is the other kind of transport: nothing
completes unless a caller drives it, and not before the test says so.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from repro.backends.base import Backend, InvokeHandle
from repro.errors import BackendError, OffloadTimeoutError
from repro.ham.functor import Functor
from repro.ham.message import MSG_RESULT, build_message
from repro.ham.serialization import serialize
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId

__all__ = ["DrivenStubBackend", "ThreadedStubBackend"]

#: delay spec: scalar seconds, {node: seconds}, or fn(node, functor).
DelaySpec = "float | dict[int, float] | Callable[[int, Functor], float]"


class ThreadedStubBackend(Backend):
    """Executes invokes on daemon threads after a per-node delay."""

    name = "threaded-stub"

    def __init__(self, num_targets: int = 1, delay: Any = 0.0) -> None:
        if num_targets < 1:
            raise BackendError(f"need at least one target, got {num_targets}")
        self._num_targets = num_targets
        self.delay = delay
        self._alive = True
        self._record_lock = threading.Lock()
        #: (node, type_name) in post order / completion order.
        self.posted: list[tuple[int, str]] = []
        self.executed: list[tuple[int, str]] = []

    def _delay_for(self, node: NodeId, functor: Functor) -> float:
        if callable(self.delay):
            return float(self.delay(node, functor))
        if isinstance(self.delay, dict):
            return float(self.delay.get(node, 0.0))
        return float(self.delay)

    # -- topology ----------------------------------------------------------
    def num_nodes(self) -> int:
        return 1 + self._num_targets

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "host", "host", "stub host")
        self.check_target(node)
        return NodeDescriptor(node, f"stub{node}", "cpu", "threaded stub")

    # -- invocation --------------------------------------------------------
    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        if not self._alive:
            raise BackendError("stub backend is shut down")
        self.check_target(node)
        handle = InvokeHandle(self, label=functor.type_name)
        delay = self._delay_for(node, functor)
        with self._record_lock:
            self.posted.append((node, functor.type_name))

        def run() -> None:
            if delay > 0:
                time.sleep(delay)
            try:
                value = functor.execute()
                reply = build_message(MSG_RESULT, 0, 0, serialize(value))
            except Exception as exc:  # noqa: BLE001 - surfaced via handle
                handle.complete_with_error(BackendError(str(exc)))
                return
            with self._record_lock:
                self.executed.append((node, functor.type_name))
            handle.complete_with_reply(reply)

        threading.Thread(target=run, daemon=True).start()
        return handle

    def drive(
        self, handle: InvokeHandle, *, blocking: bool,
        timeout: float | None = None,
    ) -> None:
        if not blocking:
            return
        if not handle.wait_event(timeout):
            raise OffloadTimeoutError("stub invoke outlived its deadline")

    # -- memory (unused by these tests) ------------------------------------
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        raise BackendError("stub backend has no target memory")

    def free_buffer(self, node: NodeId, addr: int) -> None:
        raise BackendError("stub backend has no target memory")

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        raise BackendError("stub backend has no target memory")

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        raise BackendError("stub backend has no target memory")

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        self._alive = False


class DrivenStubBackend(ThreadedStubBackend):
    """A driven transport (``driven = True``, like shm and the
    simulators): a posted invoke executes when somebody's ``drive``
    pumps it, oldest first, and only once :attr:`gate` is set."""

    name = "driven-stub"
    driven = True

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self._queue: deque[tuple[InvokeHandle, Functor]] = deque()
        #: The arguments of every posted functor, in post order.
        self.posted_args: list[tuple] = []

    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        self.check_target(node)
        handle = InvokeHandle(self, label=functor.type_name)
        self.posted_args.append(functor.args)
        self._queue.append((handle, functor))
        return handle

    def drive(
        self, handle: InvokeHandle, *, blocking: bool,
        timeout: float | None = None,
    ) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not handle.completed:
            if self.gate.is_set():
                try:
                    oldest, functor = self._queue.popleft()
                except IndexError:
                    pass  # another driver holds the last one
                else:
                    oldest.complete_with_reply(
                        build_message(MSG_RESULT, 0, 0, serialize(functor.execute()))
                    )
                    continue
            if not blocking:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise OffloadTimeoutError("driven stub invoke outlived its deadline")
            time.sleep(0.001)
