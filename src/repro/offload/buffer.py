"""Typed remote buffers (paper Table II: ``buffer_ptr<T>``).

A :class:`BufferPtr` names memory on an offload target: the node address
is part of the pointer, exactly as in the paper. It is a plain value
object that travels *inside* active messages as a function argument
(through the serializer hook registered at the bottom of this module);
on the target, the runtime's resolver turns it into a live
numpy view of the target-local memory (see
:meth:`repro.backends.base.Backend.resolve_buffer`).

Element typing uses numpy dtypes; pointer arithmetic (``ptr + k``) moves
by *elements*, like the C++ original.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import OffloadError
from repro.ham.serialization import register_serializer
from repro.offload.node import NodeId

__all__ = ["BufferPtr"]


@dataclass(frozen=True)
class BufferPtr:
    """Pointer to target memory of a given element type.

    Attributes
    ----------
    node:
        The owning node's address.
    addr:
        Target-local address (opaque outside the backend).
    dtype_str:
        Element dtype as a string (kept as ``str`` so the pointer stays
        trivially hashable/serializable).
    count:
        Number of elements reachable through this pointer.
    """

    node: NodeId
    addr: int
    dtype_str: str
    count: int

    @property
    def dtype(self) -> np.dtype:
        """The element dtype."""
        return np.dtype(self.dtype_str)

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total bytes reachable through this pointer."""
        return self.count * self.itemsize

    def __add__(self, elements: int) -> "BufferPtr":
        """Pointer arithmetic in elements (``ptr + k``)."""
        if not isinstance(elements, int):
            return NotImplemented
        if elements < 0 or elements > self.count:
            raise OffloadError(
                f"pointer offset {elements} outside buffer of {self.count} elements"
            )
        return replace(
            self,
            addr=self.addr + elements * self.itemsize,
            count=self.count - elements,
        )

    def first(self, count: int) -> "BufferPtr":
        """A pointer restricted to the first ``count`` elements."""
        if count < 0 or count > self.count:
            raise OffloadError(
                f"sub-buffer of {count} elements outside buffer of {self.count}"
            )
        return replace(self, count=count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPtr(node={self.node}, addr={self.addr:#x}, "
            f"dtype={self.dtype_str}, count={self.count})"
        )


#: Wire form: node, addr, count, then the dtype string.
_WIRE = struct.Struct("<qQq")


def _encode(ptr: BufferPtr) -> bytes:
    return _WIRE.pack(ptr.node, ptr.addr, ptr.count) + ptr.dtype_str.encode()


def _decode(data: bytes) -> BufferPtr:
    node, addr, count = _WIRE.unpack_from(data)
    return BufferPtr(node, addr, data[_WIRE.size:].decode(), count)


register_serializer(BufferPtr, "buffer_ptr", _encode, _decode)
