"""Communication backends (paper Fig. 1, bottom row).

HAM combines its active-message infrastructure with an *abstract
communication backend*; this package provides four:

``local``
    Functional in-process backend (wall clock). The target is a separate
    :class:`~repro.ham.registry.ProcessImage` executed synchronously —
    useful for testing, debugging and as the portability baseline.
``tcp``
    Functional TCP/IP backend (wall clock): real sockets, real processes.
    Plays the role of the paper's generic TCP backend ("interoperability
    rather than performance").
``shm``
    Functional shared-memory backend (wall clock): a
    :mod:`multiprocessing.shared_memory` segment laid out as a pair of
    lock-free SPSC rings, polled with adaptive spin-then-sleep loops on
    both sides. The real-hardware analogue of the paper's Sec. IV-B
    DMAATB protocol — small-message RTT several times below TCP on
    localhost because no byte ever crosses the kernel.
``veo``
    The paper's Sec. III-D protocol on the simulated SX-Aurora: VH-managed
    message buffers in VE memory, accessed through VEO read/write over the
    privileged DMA. Timed in simulated seconds.
``dma``
    The paper's Sec. IV-B protocol: all communication memory in a SysV
    shared-memory segment on the VH, registered in the VE's DMAATB; the VE
    polls flags with LHM, fetches messages with user DMA and returns
    results with SHM stores. Timed in simulated seconds.

Plus :class:`~repro.backends.faulty.FaultInjectingBackend`, a
deterministic chaos proxy that wraps any of the above and injects
drops, delays, disconnects and corrupt frames by seeded schedule — the
test harness for the resilience layer.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - at run time: lazy_exports below
    from repro.backends.base import Backend, InvokeHandle
    from repro.backends.cluster_backend import ClusterBackend
    from repro.backends.dma_backend import DmaCommBackend
    from repro.backends.fanout import FanoutBackend
    from repro.backends.faulty import FaultInjectingBackend
    from repro.backends.local import LocalBackend
    from repro.backends.shm import ShmBackend, ShmTargetServer, spawn_shm_server
    from repro.backends.tcp import TcpBackend, TcpTargetServer, spawn_local_server
    from repro.backends.veo_backend import VeoCommBackend

__all__ = [
    "Backend", "ClusterBackend", "DmaCommBackend", "FanoutBackend",
    "FaultInjectingBackend", "InvokeHandle", "LocalBackend", "ShmBackend",
    "ShmTargetServer", "TcpBackend", "TcpTargetServer", "VeoCommBackend",
    "create_backend", "spawn_local_server", "spawn_shm_server",
]

# Where each name lives: importing this package loads no transport and no
# simulator; `repro.backends.X` imports X's module on first access.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.backends.base": ("Backend", "InvokeHandle"),
    "repro.backends.cluster_backend": ("ClusterBackend",),
    "repro.backends.dma_backend": ("DmaCommBackend",),
    "repro.backends.fanout": ("FanoutBackend",),
    "repro.backends.faulty": ("FaultInjectingBackend",),
    "repro.backends.local": ("LocalBackend",),
    "repro.backends.shm": ("ShmBackend", "ShmTargetServer", "spawn_shm_server"),
    "repro.backends.tcp": ("TcpBackend", "TcpTargetServer", "spawn_local_server"),
    "repro.backends.veo_backend": ("VeoCommBackend",),
})


def create_backend(name: str, **options) -> "Backend":
    """Build a ready-to-use functional backend from a short name.

    The string form of :func:`repro.offload.init`'s ``backend``
    argument: ``"local"`` runs the target in-process, ``"tcp"`` and
    ``"shm"`` fork a target server and connect to it, wiring
    ``on_shutdown`` so the child is joined when the runtime shuts down.
    Remaining keyword ``options`` are forwarded to the backend
    constructor; for ``tcp`` an ``address=(host, port)`` option connects
    to an already-running server instead of spawning one, and for
    ``shm`` a ``segment="name"`` option attaches to an existing segment
    by name.
    """
    if name == "local":
        from repro.backends.local import LocalBackend

        return LocalBackend(**options)
    if name == "tcp":
        from repro.backends.tcp import TcpBackend, spawn_local_server

        if "address" in options:
            return TcpBackend(**options)
        process, address = spawn_local_server()
        return TcpBackend(
            address,
            on_shutdown=lambda: _reap(process),
            **options,
        )
    if name == "shm":
        from repro.backends.shm import (
            DEFAULT_RING_CAPACITY,
            ShmBackend,
            spawn_shm_server,
        )

        if "segment" in options:
            return ShmBackend(options.pop("segment"), **options)
        process, segment = spawn_shm_server(
            capacity=options.pop("capacity", DEFAULT_RING_CAPACITY)
        )
        return ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: _reap(process),
            **options,
        )
    raise ValueError(
        f"unknown backend name {name!r}; expected 'local', 'tcp' or 'shm'"
    )


def _reap(process) -> None:
    """Join the forked target and close its handle: the sentinel pipe
    goes now, not whenever the backend's reference cycle is collected."""
    process.join(timeout=10)
    if process.exitcode is not None:
        process.close()

