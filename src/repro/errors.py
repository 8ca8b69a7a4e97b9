"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. Sub-hierarchies mirror the
package layout: simulation-kernel errors, hardware-model errors, VEO API
errors (mirroring the C API's negative return codes), HAM messaging errors
and offload-runtime errors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import InvokeHandle


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# --------------------------------------------------------------------------
# simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulation kernel errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class DeadlockError(SimulationError):
    """``run_until`` could not make progress: no runnable events remain."""


class ProcessError(SimulationError):
    """A simulation process misbehaved (e.g. yielded a non-event)."""


# --------------------------------------------------------------------------
# hardware models
# --------------------------------------------------------------------------


class HardwareError(ReproError):
    """Base class for hardware-model errors."""


class MemoryError_(HardwareError):
    """Base class for simulated-memory errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class OutOfMemoryError(MemoryError_):
    """An allocation request could not be satisfied."""


class BadAddressError(MemoryError_):
    """An access touched memory outside any live allocation."""


class DoubleFreeError(MemoryError_):
    """``free`` was called twice for the same allocation."""


class TranslationError(HardwareError):
    """A virtual address could not be translated (page not mapped)."""


class DmaError(HardwareError):
    """A DMA descriptor was invalid or referenced unregistered memory."""


class DmaatbError(DmaError):
    """DMAATB registration failed (exhausted entries, bad segment, ...)."""


# --------------------------------------------------------------------------
# VEOS / VEO substrate
# --------------------------------------------------------------------------


class VeosError(ReproError):
    """Base class for VEOS substrate errors."""


class VeoError(ReproError):
    """Base class for VEO API errors (mirrors ``VEO_COMMAND_ERROR`` &c.)."""


class VeoProcError(VeoError):
    """VE process creation/teardown failed or handle is stale."""


class VeoSymbolError(VeoError):
    """``veo_get_sym`` could not resolve a symbol in the loaded library."""


class VeoCommandError(VeoError):
    """An asynchronous VEO command failed on the VE side."""


# --------------------------------------------------------------------------
# HAM / offload
# --------------------------------------------------------------------------


class HamError(ReproError):
    """Base class for Heterogeneous-Active-Message errors."""


class HandlerKeyError(HamError):
    """A handler key received over the wire has no local registration."""


class SerializationError(HamError):
    """A functor or argument could not be (de)serialized."""


class OffloadError(ReproError):
    """Base class for HAM-Offload runtime errors."""


class NoSuchNodeError(OffloadError):
    """A ``node_t`` does not name a process of the running application."""


class BackendError(OffloadError):
    """A communication backend failed (disconnect, truncated frame, ...)."""


class OffloadTimeoutError(OffloadError, TimeoutError):
    """An offload operation exceeded its deadline.

    Derives from the builtin :class:`TimeoutError` so generic timeout
    handling (``except TimeoutError``) works alongside ``except
    ReproError``. Raised instead of blocking forever whenever a
    :class:`~repro.offload.resilience.ResiliencePolicy` deadline (or an
    explicit ``timeout=``) is in force and the target goes silent.
    """

    #: The handle still filed for the late reply of a timed-out
    #: ``Backend.sync_invoke`` (``Runtime.sync`` registers it).
    handle: InvokeHandle | None = None


class CircuitOpenError(OffloadError):
    """An offload was refused fast because the target node is down.

    The per-node circuit breaker of
    :class:`~repro.offload.resilience.HealthMonitor` opens after repeated
    transport failures; operations fail immediately instead of burning a
    full deadline against a dead node. After ``probe_interval`` seconds a
    single half-open probe is let through to test recovery.
    """


class AdmissionRejectedError(OffloadError):
    """An offload was refused *before* serialization by admission control.

    Raised by the QoS layer (:mod:`repro.offload.qos`) when the tenant is
    over its rate limit. Fast-fail by design — the functor is never
    serialized and no window slot is consumed, so a rejected request
    costs microseconds, not a deadline.
    """


class RateLimitedError(AdmissionRejectedError):
    """The tenant's token bucket is empty (per-tenant rate limit)."""


class InjectedFaultError(BackendError):
    """A fault deliberately injected by a chaos/fault-injection layer.

    Raised by :class:`~repro.backends.faulty.FaultInjectingBackend` for
    scheduled drops and disconnects, so tests can tell injected faults
    from organic transport failures.
    """


class CorruptFrameError(BackendError):
    """A received frame failed integrity checks (or was injected corrupt)."""


class RemoteExecutionError(OffloadError):
    """The offloaded function raised on the target.

    The remote traceback string is carried in :attr:`remote_traceback`.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class FutureError(OffloadError):
    """Misuse of a future (e.g. ``get()`` after the runtime shut down)."""
