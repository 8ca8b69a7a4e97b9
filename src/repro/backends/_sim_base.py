"""Base class of the timed, simulated protocol backends.

Owns everything the VEO-protocol and DMA-protocol backends share: the
simulated machine, the two process images (the "heterogeneous binaries"),
VE process bootstrap through VEO, slot bookkeeping with sequence-numbered
flags, host-side drive loops, and the memory API (both protocols perform
bulk data exchange through VEO, paper Sec. IV-B: "Starting the
application, initialisation and data exchange are still performed through
the VEO API").

The backend supports **multiple Vector Engines**: one offload target per
VE (node ``i`` ↔ VE ``i-1``), each with its own VE process,
communication areas, message-loop server and slot state, bundled in a
:class:`TargetChannel`. This models the paper's A300-8 (eight VEs behind
two PCIe switches) and enables the multi-VE scaling experiments.

Subclasses implement the actual message transport per channel:

* :meth:`_setup_channel` — allocate/publish one channel's communication
  areas;
* :meth:`_host_send` — place one message + flag into the target-visible
  communication area (drives the simulator);
* :meth:`_host_poll` — one host-side poll step for a result flag
  (completes the handle when the result arrived);
* :meth:`_ve_main` — the VE-side message loop (a simulation process).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

import numpy as np

from repro.backends._sim_common import Doorbell
from repro.backends.base import Backend, InvokeHandle
from repro.errors import BackendError, BadAddressError, OffloadTimeoutError
from repro.ham.execution import execute_message, sized_invoke_parts
from repro.ham.functor import Functor
from repro.ham.message import MSG_SHUTDOWN, build_message
from repro.ham.registry import Catalog, ProcessImage
from repro.machine import AuroraMachine
from repro.offload.buffer import BufferPtr
from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
from repro.veo.api import VeoProc
from repro.veos.loader import VeLibrary

__all__ = ["SimBackendBase", "SimInvokeHandle", "TargetChannel"]


class SimInvokeHandle(InvokeHandle):
    """Invoke handle carrying its channel, slot and expected sequence."""

    def __init__(
        self,
        backend: "SimBackendBase",
        channel: "TargetChannel",
        slot: int,
        seq: int,
        label: str,
    ) -> None:
        super().__init__(backend, label=label)
        self.channel = channel
        self.slot = slot
        self.seq = seq


class TargetChannel:
    """Per-VE protocol state: process, slots, sequences, doorbells.

    ``machine`` defaults to the backend's machine; the cluster backend
    places channels on *remote* machines (same simulator, other node).
    """

    def __init__(
        self,
        backend: "SimBackendBase",
        node: NodeId,
        ve_index: int,
        machine: AuroraMachine | None = None,
    ) -> None:
        self.backend = backend
        self.node = node
        self.ve_index = ve_index
        self.machine = machine if machine is not None else backend.machine
        self.ve = self.machine.ve(ve_index)
        self.proc = VeoProc(self.machine, ve_index)
        self.doorbell = Doorbell(backend.sim)
        #: Rung when a result flag has become visible host-side; used by
        #: in-simulation waiters (the cluster backend's remote agents).
        self.result_doorbell = Doorbell(backend.sim)
        self.slot_handles: list[SimInvokeHandle | None] = [None] * backend.num_slots
        self.slot_seq = [0] * backend.num_slots
        self.next_slot = 0
        self.ve_expected_seq = [0] * backend.num_slots
        self.kernel_time: dict[tuple[int, int], float] = {}
        self.messages_executed = 0
        library = VeLibrary(f"libham_app_ve{ve_index}")
        library.add_server("ham_main", lambda: backend._ve_main(self))
        backend._configure_library(library)
        self.lib_handle = self.proc.load_library(library)
        self.ctx = self.proc.open_context()
        backend._setup_channel(self)
        self.server = self.proc.start_server(self.lib_handle.get_symbol("ham_main"))

    def check_server(self) -> None:
        """Raise if the VE message loop died."""
        if self.server.processed and not self.server.ok:
            raise BackendError(
                f"VE {self.ve_index} message loop crashed"
            ) from self.server.value


def _live_view(channel: TargetChannel, ptr: BufferPtr) -> np.ndarray:
    """The VE memory ``ptr`` names, as a typed view. The range must lie
    inside one live allocation, as ``HostedBuffers`` requires: a freed
    or foreign pointer raises :class:`BadAddressError` instead of
    reading whatever the memory holds now. (A table lookup: no
    simulated time is charged.)"""
    hbm = channel.ve.hbm
    end = ptr.addr + ptr.nbytes
    try:
        inside = end <= hbm.allocation_at(ptr.addr).end
    except BadAddressError:
        inside = False
    if not inside:
        raise BadAddressError(
            f"range [{ptr.addr:#x}, {end:#x}) is not inside a live buffer"
        )
    return hbm.view(ptr.addr, ptr.nbytes).view(ptr.dtype)


class SimBackendBase(Backend):
    """Common core of the ``veo`` and ``dma`` communication backends.

    Parameters
    ----------
    machine:
        The simulated Aurora node (a fresh single-VE machine by default).
    ve_indices:
        VEs to use as offload targets, in node order (node ``i`` is
        ``ve_indices[i-1]``). Defaults to every VE of the machine.
    num_slots:
        Message slots per direction and target.
    msg_size:
        Capacity of one message area in bytes.
    catalog:
        Offloadable catalog for both process images.
    """

    name = "sim-base"
    device_description = "simulated NEC VE"
    #: Single-threaded: the simulator advances only while a caller polls.
    driven = True

    def __init__(
        self,
        machine: AuroraMachine | None = None,
        *,
        ve_index: int | None = None,
        ve_indices: list[int] | None = None,
        num_slots: int = 8,
        msg_size: int = 4096,
        catalog: Catalog | None = None,
    ) -> None:
        if num_slots < 1:
            raise BackendError(f"need at least one slot, got {num_slots}")
        self.machine = machine if machine is not None else AuroraMachine(num_ves=1)
        if ve_index is not None and ve_indices is not None:
            raise BackendError("pass either ve_index or ve_indices, not both")
        if ve_indices is None:
            ve_indices = [ve_index] if ve_index is not None else list(
                range(self.machine.num_ves)
            )
        if not ve_indices:
            raise BackendError("need at least one target VE")
        for index in ve_indices:
            if not 0 <= index < self.machine.num_ves:
                raise BackendError(f"no VE {index} on this machine")
        self.sim = self.machine.sim
        self.timing = self.machine.timing
        self.num_slots = num_slots
        self.msg_size = msg_size
        self.host_image = ProcessImage("vh", catalog)
        self.target_image = ProcessImage("ve", catalog)
        #: Kernel-duration model: seconds of VE compute per functor.
        self.kernel_cost_fn: Callable[[Functor], float] = lambda functor: 0.0
        self._msg_id = itertools.count(1)
        self._alive = True
        # One channel per target VE (bootstraps processes through VEO).
        self.channels: list[TargetChannel] = [
            TargetChannel(self, node, index)
            for node, index in enumerate(ve_indices, start=1)
        ]

    # -- convenience accessors for the common single-VE case ------------------
    @property
    def ve(self):
        """The first target's Vector Engine (single-VE convenience)."""
        return self.channels[0].ve

    @property
    def proc(self) -> VeoProc:
        """The first target's VEO process handle (single-VE convenience)."""
        return self.channels[0].proc

    @property
    def messages_executed(self) -> int:
        """Messages executed across all targets."""
        return sum(channel.messages_executed for channel in self.channels)

    def channel(self, node: NodeId) -> TargetChannel:
        """The channel serving offload target ``node``."""
        self.check_target(node)
        return self.channels[node - 1]

    # -- subclass hooks ---------------------------------------------------------
    def _configure_library(self, library: VeLibrary) -> None:
        """Add protocol-specific C-API symbols (optional override)."""

    def _setup_channel(self, channel: TargetChannel) -> None:
        """Allocate and publish one channel's communication areas."""
        raise NotImplementedError

    def _host_send(self, channel: TargetChannel, slot: int, seq: int, message: bytes) -> None:
        """Deliver one message + flag to the target (must override)."""
        raise NotImplementedError

    def _host_poll(self, handle: SimInvokeHandle) -> None:
        """One host-side result-poll step (must override)."""
        raise NotImplementedError

    def _ve_main(self, channel: TargetChannel):
        """The VE message loop (must override; a generator)."""
        raise NotImplementedError

    # -- timing helpers ------------------------------------------------------------
    def _advance(self, duration: float) -> None:
        """Charge host-side CPU time (drives the simulator)."""
        if duration > 0:
            self.sim.run(until=self.sim.now + duration)

    def _span(self, label: str, start: float) -> None:
        """Record a protocol-phase span if a tracer is attached."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.span(f"{self.name}.{label}", start)

    # -- topology ----------------------------------------------------------------------
    def num_nodes(self) -> int:
        return 1 + len(self.channels)

    def descriptor(self, node: NodeId) -> NodeDescriptor:
        if node == HOST_NODE:
            return NodeDescriptor(node, "vh", "host", f"{self.name} backend host")
        channel = self.channel(node)
        return NodeDescriptor(
            node, f"ve{channel.ve_index}", "ve", self.device_description
        )

    # -- invocation -----------------------------------------------------------------------
    def post_invoke(self, node: NodeId, functor: Functor) -> InvokeHandle:
        self._check_alive()
        channel = self.channel(node)
        start = self.sim.now
        self._advance(self.timing.cpu_serialize)
        parts, trace = sized_invoke_parts(self.host_image, functor, next(self._msg_id))
        self._span("host.serialize", start)
        kernel_seconds = float(self.kernel_cost_fn(functor))
        handle = self._post_raw(channel, b"".join(parts), functor.type_name,
                                kernel_seconds)
        handle.trace = trace
        return handle

    def _post_raw(
        self,
        channel: TargetChannel,
        message: bytes,
        label: str,
        kernel_seconds: float = 0.0,
    ) -> SimInvokeHandle:
        if len(message) > self.msg_size:
            raise BackendError(
                f"message of {len(message)} bytes exceeds slot capacity "
                f"{self.msg_size}"
            )
        slot = self._acquire_slot(channel)
        channel.slot_seq[slot] += 1
        seq = channel.slot_seq[slot]
        handle = SimInvokeHandle(self, channel, slot, seq, label)
        channel.slot_handles[slot] = handle
        if kernel_seconds > 0:
            channel.kernel_time[(slot, seq)] = kernel_seconds
        start = self.sim.now
        self._host_send(channel, slot, seq, message)
        self._span("host.post", start)
        return handle

    def _acquire_slot(self, channel: TargetChannel) -> int:
        """Round-robin slot; auto-drains the oldest outstanding result."""
        slot = channel.next_slot
        channel.next_slot = (channel.next_slot + 1) % self.num_slots
        previous = channel.slot_handles[slot]
        if previous is not None and not previous.completed:
            # Flow control: the application left more offloads in flight
            # than there are slots; finish the oldest one first.
            self.drive(previous, blocking=True)
        channel.slot_handles[slot] = None
        return slot

    def drive(
        self, handle: InvokeHandle, *, blocking: bool, timeout: float | None = None
    ) -> None:
        """Poll the target; ``timeout`` counts *simulated* seconds."""
        self._check_alive()
        assert isinstance(handle, SimInvokeHandle)
        if handle.completed:
            return
        deadline = None if timeout is None else self.sim.now + timeout
        self._host_poll(handle)
        while blocking and not handle.completed:
            if deadline is not None and self.sim.now >= deadline:
                raise OffloadTimeoutError(
                    f"offload {handle.label!r} exceeded its deadline of "
                    f"{timeout:g} simulated seconds"
                )
            self._host_poll(handle)

    def _finish_handle(self, handle: SimInvokeHandle, reply: bytes) -> None:
        """Deliver the reply and release the slot."""
        start = self.sim.now
        self._advance(self.timing.cpu_deserialize + self.timing.cpu_future_resolve)
        self._span("host.resolve", start)
        handle.complete_with_reply(reply)
        if handle.channel.slot_handles[handle.slot] is handle:
            handle.channel.slot_handles[handle.slot] = None

    # -- VE-side execution helper --------------------------------------------------------
    def _execute_on_ve(self, channel: TargetChannel, slot: int, seq: int, message: bytes):
        """Generator: deserialize, dispatch and run one message on a VE.

        Returns ``(reply_bytes, keep_running)``; charges the framework CPU
        costs and the modeled kernel duration.
        """
        timing = self.timing
        start = self.sim.now
        yield self.sim.timeout(timing.cpu_deserialize + timing.cpu_dispatch)
        kernel_seconds = channel.kernel_time.pop((slot, seq), 0.0)
        if kernel_seconds > 0:
            yield self.sim.timeout(kernel_seconds)
        reply, keep_running = execute_message(
            self.target_image,
            message,
            resolver=lambda arg: self._resolve_on_ve(channel, arg),
        )
        channel.messages_executed += 1
        yield self.sim.timeout(timing.cpu_result_serialize)
        self._span("ve.execute", start)
        return reply, keep_running

    def _resolve_on_ve(self, channel: TargetChannel, arg: Any) -> Any:
        if isinstance(arg, BufferPtr):
            if arg.node != channel.node:
                raise BackendError(
                    f"buffer of node {arg.node} dereferenced on node {channel.node}"
                )
            return _live_view(channel, arg)
        return arg

    def resolve_buffer(self, node: NodeId, ptr: BufferPtr) -> np.ndarray:
        return _live_view(self.channel(node), ptr)

    # -- memory (via VEO in both protocols) --------------------------------------------------
    def alloc_buffer(self, node: NodeId, nbytes: int) -> int:
        self._check_alive()
        return self.channel(node).proc.alloc_mem(nbytes)

    def free_buffer(self, node: NodeId, addr: int) -> None:
        self._check_alive()
        self.channel(node).proc.free_mem(addr)

    def write_buffer(self, node: NodeId, addr: int, data: bytes) -> None:
        self._check_alive()
        self.channel(node).proc.write_mem(addr, data)

    def read_buffer(self, node: NodeId, addr: int, nbytes: int) -> bytes:
        self._check_alive()
        return self.channel(node).proc.read_mem(addr, nbytes)

    # -- introspection ---------------------------------------------------------------------------
    def stats(self) -> dict:
        """Protocol and hardware counters, per channel and aggregated."""
        channels = {}
        for channel in self.channels:
            ve = channel.ve
            channels[f"ve{channel.ve_index}"] = {
                "messages_executed": channel.messages_executed,
                "lhm_word_loads": ve.lhm_ops,
                "shm_word_stores": ve.shm_ops,
                "user_dma_transfers": ve.udma.transfer_count,
                "privileged_dma_transfers": channel.proc.daemon.dma_manager.transfer_count,
                "pcie_bytes_vh_to_ve": ve.link.bytes_vh_to_ve,
                "pcie_bytes_ve_to_vh": ve.link.bytes_ve_to_vh,
            }
        return {
            "backend": self.name,
            "simulated_time": self.sim.now,
            "messages_executed": self.messages_executed,
            "channels": channels,
        }

    # -- lifecycle -----------------------------------------------------------------------------
    def shutdown(self) -> None:
        if not self._alive:
            return
        for channel in self.channels:
            shutdown_msg = build_message(MSG_SHUTDOWN, 0, next(self._msg_id), b"")
            handle = self._post_raw(channel, shutdown_msg, "shutdown")
            handle.wait()
        self._alive = False
        for channel in self.channels:
            channel.proc.destroy()

    def _check_alive(self) -> None:
        if not self._alive:
            raise BackendError(f"{self.name} backend is shut down")
