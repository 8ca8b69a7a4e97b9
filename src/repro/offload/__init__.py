"""HAM-Offload — the public offloading API (paper Table II).

The API mirrors the C++ original:

==============================  ==========================================
paper                            here
==============================  ==========================================
``node_t``                       :data:`~repro.offload.node.NodeId` (int)
``node_descriptor``              :class:`NodeDescriptor`
``buffer_ptr<T>``                :class:`BufferPtr`
``future<T>``                    :class:`Future`
``f2f(f, args...)``              :func:`repro.ham.f2f`
``sync(node, f)``                :meth:`Runtime.sync`
``async(node, f)``               :meth:`Runtime.async_`
``allocate<T>(node, n)``         :meth:`Runtime.allocate`
``free(ptr)``                    :meth:`Runtime.free`
``put(src, dst, n)``             :meth:`Runtime.put`
``get(src, dst, n)``             :meth:`Runtime.get`
``copy(src, dst, n)``            :meth:`Runtime.copy`
``num_nodes()``                  :meth:`Runtime.num_nodes`
``this_node()``                  :meth:`Runtime.this_node`
``get_node_descriptor(n)``       :meth:`Runtime.get_node_descriptor`
==============================  ==========================================

A :class:`Runtime` is bound to one communication backend
(:mod:`repro.backends`); the same application code runs unchanged on the
functional ``local``/``tcp`` backends and on the simulated ``veo``/``dma``
backends — the paper's portability claim (Sec. V end).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - at run time: lazy_exports below
    from repro.ham import Migratable, f2f, offloadable
    from repro.offload.buffer import BufferPtr
    from repro.offload.future import Future
    from repro.offload.node import HOST_NODE, NodeDescriptor, NodeId
    from repro.offload.qos import (
        AdmissionController, QoSConfig, TenantPolicy, TokenBucket, current_tenant,
        tenant_scope,
    )
    from repro.offload.resilience import HealthMonitor, NodeHealth, ResiliencePolicy
    from repro.offload.runtime import Runtime

__all__ = [
    "AdmissionController", "BufferPtr", "Future", "HOST_NODE", "HealthMonitor",
    "Migratable", "NodeDescriptor", "NodeHealth", "NodeId", "QoSConfig",
    "ResiliencePolicy", "Runtime", "TenantPolicy", "TokenBucket",
    "current_tenant", "f2f", "offloadable", "tenant_scope",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.ham": ("Migratable", "f2f", "offloadable"),
    "repro.offload.buffer": ("BufferPtr",),
    "repro.offload.future": ("Future",),
    "repro.offload.node": ("HOST_NODE", "NodeDescriptor", "NodeId"),
    "repro.offload.qos": (
        "AdmissionController", "QoSConfig", "TenantPolicy", "TokenBucket",
        "current_tenant", "tenant_scope",
    ),
    "repro.offload.resilience": ("HealthMonitor", "NodeHealth", "ResiliencePolicy"),
    "repro.offload.runtime": ("Runtime",),
})
