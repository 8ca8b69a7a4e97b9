"""repro — HAM-Offload on the NEC SX-Aurora TSUBASA, reproduced in Python.

Reproduction of M. Noack, E. Focht, T. Steinke, *Heterogeneous Active
Messages for Offloading on the NEC SX-Aurora TSUBASA* (HCW/IPDPSW 2019):
the HAM/HAM-Offload framework with functional local/TCP backends and a
timed discrete-event simulation of the SX-Aurora platform.

Top-level convenience re-exports::

    from repro import Runtime, f2f, offloadable
    from repro.backends import DmaCommBackend

See README.md for the tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - at run time: lazy_exports below
    from repro.machine import AuroraMachine
    from repro.offload import BufferPtr, Future, NodeDescriptor, Runtime, f2f, offloadable

__version__ = "1.0.0"

__all__ = [
    "AuroraMachine", "BufferPtr", "Future", "NodeDescriptor", "Runtime",
    "__version__", "f2f", "offloadable",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.machine": ("AuroraMachine",),
    "repro.offload": (
        "BufferPtr", "Future", "NodeDescriptor", "Runtime", "f2f", "offloadable",
    ),
})
