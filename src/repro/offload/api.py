"""Free-function offload API — the exact shape of paper Table II.

The C++ original exposes ``offload::sync(...)``, ``offload::async(...)``,
``offload::allocate<T>(...)`` as free functions against a process-global
runtime. This module mirrors that: :func:`init` binds a backend to the
module-global runtime, after which the Table II operations are plain
functions::

    from repro.offload import api as offload

    offload.init(DmaCommBackend())
    target = 1
    a = offload.allocate(target, 1024)
    offload.put(host_array, a)
    future = offload.async_(target, f2f(kernel, a, 1024))
    print(future.get())
    offload.finalize()

Object-oriented use (multiple runtimes in one process) goes through
:class:`repro.offload.runtime.Runtime` directly; this module is a thin
veneer for application code that wants the paper's look and feel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import OffloadError
from repro.ham.functor import Functor
from repro.offload.buffer import BufferPtr
from repro.offload.future import Future
from repro.offload.node import NodeDescriptor, NodeId
from repro.offload.qos import QoSConfig
from repro.offload.resilience import ResiliencePolicy
from repro.offload.runtime import Runtime
from repro.telemetry import flightrecorder as _flightrecorder
from repro.telemetry import recorder as _telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import Backend
    from repro.telemetry.config import TelemetryConfig

__all__ = [
    "init",
    "finalize",
    "is_initialized",
    "runtime",
    "sync",
    "async_",
    "allocate",
    "free",
    "put",
    "get",
    "copy",
    "num_nodes",
    "this_node",
    "get_node_descriptor",
    "introspect",
]

_runtime: Runtime | None = None
#: What :func:`init` replaced when it armed the flight recorder.
_flight_replaced: tuple | None = None
#: The recorder :func:`init` enabled, which :func:`finalize` disables.
_enabled_recorder: "_telemetry.Recorder | None" = None


def init(
    backend: "Backend | str",
    policy: ResiliencePolicy | None = None,
    *,
    telemetry: "bool | dict | TelemetryConfig" = False,
    window: int | None = None,
    qos: "QoSConfig | None" = None,
    **backend_options: Any,
) -> Runtime:
    """Initialize the process-global runtime with ``backend``.

    ``backend`` is either a constructed
    :class:`~repro.backends.base.Backend` or a short name —
    ``"local"``, ``"tcp"`` or ``"shm"`` — resolved through
    :func:`repro.backends.create_backend` (the string forms spawn and
    connect to a target server in one call, e.g.
    ``offload.init(backend="shm")``). With a short name, extra keyword
    arguments are forwarded to the backend constructor — e.g.
    ``offload.init("tcp", workers=8)`` sizes the spawned server's pool
    and ``op_timeout=2.0`` bounds every blocking operation. A constructed
    backend carries its own options; passing extras alongside one is an
    error.

    ``policy`` optionally installs a
    :class:`~repro.offload.resilience.ResiliencePolicy` (deadlines,
    retries, health monitoring) on the runtime.

    ``window`` bounds the number of invocations in flight on the backend
    (backpressure for pipelined producers); ``None`` keeps the default
    of :data:`~repro.backends.base.DEFAULT_INFLIGHT_LIMIT`.

    ``qos`` installs the multi-tenant admission layer
    (:class:`~repro.offload.qos.QoSConfig`): per-tenant rate limits,
    checked before an offload takes a window slot, for the tenant that
    ``sync``/``async_``'s ``tenant=`` argument names. See
    ``docs/resilience.md``.

    ``telemetry`` enables the process-global recorder
    (:func:`repro.telemetry.enable`) before any operation runs, so every
    offload of the session is recorded, and :func:`finalize` disables it
    again (a recorder enabled before ``init`` stays); see
    ``docs/observability.md``. It accepts:

    * ``True`` — plain recording, default capacity;
    * a :class:`~repro.telemetry.config.TelemetryConfig` (or a dict
      with its field names) — additionally ``capacity`` sizes the ring
      and ``crash_dir`` arms the flight recorder's crash bundles until
      :func:`finalize`.

    Raises
    ------
    OffloadError
        If a runtime is already initialized (call :func:`finalize` first).

    An invalid option is rejected before a target is spawned, and an
    ``init`` that raises later leaves nothing running: no target, no
    segment, and a following ``init`` works.
    """
    global _runtime
    if _runtime is not None:
        raise OffloadError("offload API already initialized; call finalize() first")
    if not isinstance(backend, str) and backend_options:
        raise OffloadError(
            "backend options "
            f"({', '.join(sorted(backend_options))}) only apply to the "
            "string form of init; pass them to the backend constructor "
            "instead"
        )
    # Options are validated before a target is spawned. What an option
    # selects is imported where it is selected.
    config = None
    if telemetry is not False:
        from repro.telemetry.config import TelemetryConfig

        config = TelemetryConfig.coerce(telemetry)
    spawned = None
    if isinstance(backend, str):
        from repro.backends import create_backend

        backend = spawned = create_backend(backend, **backend_options)
    try:
        if config is not None:
            _apply_telemetry(config)
        _runtime = Runtime(backend, policy=policy, window=window, qos=qos)
    except BaseException:
        # Nothing init started outlives a failed init: the runtime, the
        # recorder it enabled, the spawned target.
        finalize()
        if spawned is not None:
            spawned.shutdown()
        raise
    return _runtime


def _apply_telemetry(config: TelemetryConfig) -> None:
    """Enable the recorder and install what ``config`` selects."""
    global _flight_replaced, _enabled_recorder
    if config.enabled and _telemetry.get() is None:
        _enabled_recorder = _telemetry.enable(config.capacity)
    if config.crash_dir is not None:
        # Arm flight-recorder dumping (and SIGUSR2) until finalize();
        # the recorder itself has been noting events since import.
        _flight_replaced = _flightrecorder.arm(config.crash_dir)


def introspect(*, probe_target: bool = True) -> dict:
    """One merged live-state snapshot of the global runtime.

    See :func:`repro.telemetry.inspect.snapshot`.
    """
    from repro.telemetry.inspect import snapshot

    return snapshot(runtime(), probe_target=probe_target)


def finalize() -> None:
    """Shut the global runtime down (idempotent).

    Also disables the recorder if :func:`init` enabled it and gives the
    flight recorder back the crash directory and ``SIGUSR2`` handler it
    had before :func:`init` armed it.
    """
    global _runtime, _flight_replaced, _enabled_recorder
    recorder = _telemetry.get()
    if _runtime is not None:
        _runtime.shutdown()
        _runtime = None
    if recorder is not None and recorder is _enabled_recorder:
        _telemetry.disable()
    _enabled_recorder = None
    if _flight_replaced is not None:
        _flightrecorder.disarm(_flight_replaced)
        _flight_replaced = None


def is_initialized() -> bool:
    """Whether :func:`init` has been called (and not yet finalized)."""
    return _runtime is not None


def runtime() -> Runtime:
    """The global runtime.

    Raises
    ------
    OffloadError
        If :func:`init` has not been called.
    """
    if _runtime is None:
        raise OffloadError("offload API not initialized; call init(backend) first")
    return _runtime


def sync(
    node: NodeId,
    functor: Functor,
    *,
    idempotent: bool = False,
    timeout: float | None = None,
    tenant: str | None = None,
) -> Any:
    """Synchronous offload of ``functor`` to ``node`` (Table II ``sync``).

    ``idempotent`` and ``timeout`` engage the runtime's resilience
    policy; ``tenant`` tags the offload for the QoS layer when one is
    installed. See :meth:`repro.offload.runtime.Runtime.sync`.
    """
    return runtime().sync(node, functor, idempotent=idempotent,
                          timeout=timeout, tenant=tenant)


def async_(
    node: NodeId,
    functor: Functor,
    *,
    tenant: str | None = None,
) -> Future:
    """Asynchronous offload; returns a future (Table II ``async``)."""
    return runtime().async_(node, functor, tenant=tenant)


def allocate(node: NodeId, count: int, dtype: Any = np.float64) -> BufferPtr:
    """Allocate ``count`` elements on ``node`` (Table II ``allocate<T>``)."""
    return runtime().allocate(node, count, dtype)


def free(ptr: BufferPtr) -> None:
    """Free target memory (Table II ``free``)."""
    runtime().free(ptr)


def put(src: np.ndarray, dst: BufferPtr, count: int | None = None) -> Future:
    """Write host data into target memory (Table II ``put``)."""
    return runtime().put(src, dst, count)


def get(src: BufferPtr, dst: np.ndarray, count: int | None = None) -> Future:
    """Read target memory into host data (Table II ``get``)."""
    return runtime().get(src, dst, count)


def copy(src: BufferPtr, dst: BufferPtr, count: int | None = None) -> Future:
    """Direct target-to-target copy (Table II ``copy``)."""
    return runtime().copy(src, dst, count)


def num_nodes() -> int:
    """Number of processes of the running application (Table II)."""
    return runtime().num_nodes()


def this_node() -> NodeId:
    """Address of the current process (Table II)."""
    return runtime().this_node()


def get_node_descriptor(node: NodeId) -> NodeDescriptor:
    """Descriptor of ``node`` (Table II)."""
    return runtime().get_node_descriptor(node)
