"""Target-side buffer table for the functional backends.

The ``local`` and ``tcp`` backends have no simulated device memory;
targets hold their buffers in a :class:`HostedBuffers` table mapping
opaque addresses onto real numpy storage. Addresses are monotonic and
never reused, so stale pointers are reliably detected (use-after-free
raises instead of aliasing a new allocation).
"""

from __future__ import annotations

import bisect
import threading

import numpy as np

from repro.errors import BadAddressError, DoubleFreeError
from repro.offload.buffer import BufferPtr

__all__ = ["HostedBuffers"]

_ALIGN = 64


class HostedBuffers:
    """Address-keyed buffer table with offset-aware access."""

    def __init__(self) -> None:
        self._next_addr = 0x1000
        #: base address -> backing storage
        self._buffers: dict[int, np.ndarray] = {}
        #: sorted base addresses for containment lookups
        self._bases: list[int] = []
        #: Table mutations and lookups may race between a server's
        #: reading thread (alloc/free/write/read) and the threads
        #: executing invokes (BufferPtr resolution) — the lock keeps the
        #: address table consistent. Access to the returned storage
        #: itself is the application's concern, as with real device memory.
        self._lock = threading.Lock()

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the (never-reused) base address."""
        if nbytes <= 0:
            raise BadAddressError(f"allocation size must be positive, got {nbytes}")
        with self._lock:
            addr = self._next_addr
            self._next_addr += -(-nbytes // _ALIGN) * _ALIGN + _ALIGN
            self._buffers[addr] = np.zeros(nbytes, dtype=np.uint8)
            bisect.insort(self._bases, addr)
        return addr

    def free(self, addr: int) -> None:
        """Free an allocation by its base address."""
        with self._lock:
            if self._buffers.pop(addr, None) is None:
                raise DoubleFreeError(f"free of unknown address {addr:#x}")
            self._bases.remove(addr)

    def _locate(self, addr: int, nbytes: int) -> tuple[np.ndarray, int]:
        """Find ``(storage, offset)`` for a range, which may start inside
        an allocation (offset pointers)."""
        with self._lock:
            index = bisect.bisect_right(self._bases, addr) - 1
            if index >= 0:
                base = self._bases[index]
                storage = self._buffers[base]
                offset = addr - base
                if offset + nbytes <= storage.size:
                    return storage, offset
        raise BadAddressError(
            f"range [{addr:#x}, {addr + nbytes:#x}) is not inside a live buffer"
        )

    def write(self, addr: int, data) -> None:
        """Copy bytes into a live buffer range (accepts any bytes-like)."""
        storage, offset = self._locate(addr, len(data))
        storage[offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def read(self, addr: int, nbytes: int) -> bytes:
        """Copy bytes out of a live buffer range."""
        storage, offset = self._locate(addr, nbytes)
        return storage[offset : offset + nbytes].tobytes()

    def view(self, ptr: BufferPtr) -> np.ndarray:
        """Zero-copy typed view for a :class:`BufferPtr` (target side)."""
        storage, offset = self._locate(ptr.addr, ptr.nbytes)
        return storage[offset : offset + ptr.nbytes].view(ptr.dtype)

    @property
    def live_count(self) -> int:
        """Number of live allocations."""
        with self._lock:
            return len(self._buffers)
