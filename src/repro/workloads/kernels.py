"""Offloadable numerical kernels.

Each kernel exists twice, deliberately:

* as an :func:`~repro.ham.offloadable` **function** operating on real
  numpy data (buffer-pointer arguments arrive as live views of target
  memory), so results are bit-for-bit checkable on every backend;
* as a **cost descriptor** (:class:`OffloadKernel`), giving the roofline
  model flop/byte counts so the timed backends can charge realistic VE
  compute time via ``kernel_cost_fn``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ham import offloadable
from repro.hw.roofline import DeviceModel, KernelCost

__all__ = [
    "KERNELS",
    "OffloadKernel",
    "daxpy",
    "dgemm",
    "inner_product",
    "jacobi_sweep",
    "sleep_kernel",
]


# -- offloadable functions (real numpy semantics) ----------------------------


@offloadable
def inner_product(a, b, n: int) -> float:
    """Dot product of the first ``n`` elements (the paper's Fig. 2 kernel)."""
    return float(np.dot(np.asarray(a)[:n], np.asarray(b)[:n]))


@offloadable
def daxpy(alpha: float, x, y) -> int:
    """``y := alpha * x + y`` in place; returns the element count."""
    xv, yv = np.asarray(x), np.asarray(y)
    yv += alpha * xv
    return int(yv.size)


@offloadable
def dgemm(a, b, c, n: int) -> int:
    """``C := A @ B`` for square n×n matrices stored flat; returns n."""
    av = np.asarray(a)[: n * n].reshape(n, n)
    bv = np.asarray(b)[: n * n].reshape(n, n)
    cv = np.asarray(c)[: n * n].reshape(n, n)
    np.matmul(av, bv, out=cv)
    return n


@offloadable
def jacobi_sweep(grid, scratch, n: int) -> float:
    """One Jacobi relaxation sweep on an n×n grid; returns the residual.

    ``grid`` holds the current iterate, ``scratch`` receives the update;
    the caller swaps pointers between sweeps (classic double buffering).
    """
    u = np.asarray(grid)[: n * n].reshape(n, n)
    v = np.asarray(scratch)[: n * n].reshape(n, n)
    v[:] = u
    v[1:-1, 1:-1] = 0.25 * (
        u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
    )
    return float(np.abs(v - u).max())


@offloadable
def sleep_kernel(seconds: float) -> float:
    """Pure-latency kernel: sleep for ``seconds``, return ``seconds``.

    ``time.sleep`` releases the GIL, so concurrent executions on a
    worker pool overlap fully — a stand-in for a fixed-duration device
    kernel in pipelining benchmarks, where throughput (not compute)
    is the quantity under test.
    """
    time.sleep(seconds)
    return float(seconds)


# -- cost descriptors ----------------------------------------------------------


@dataclass(frozen=True)
class OffloadKernel:
    """A kernel's identity plus its roofline cost as a function of size.

    ``cost(n)`` maps the kernel's size parameter to flop/byte counts;
    ``ve_time``/``vh_time`` evaluate the roofline on a device model.
    """

    name: str
    fn: Callable
    cost: Callable[[int], KernelCost]

    def time_on(self, device: DeviceModel, n: int) -> float:
        """Roofline execution time for size ``n`` on ``device``."""
        return device.kernel_time(self.cost(n))


def _inner_product_cost(n: int) -> KernelCost:
    return KernelCost(flops=2.0 * n, bytes_moved=16.0 * n)


def _daxpy_cost(n: int) -> KernelCost:
    return KernelCost(flops=2.0 * n, bytes_moved=24.0 * n)


def _dgemm_cost(n: int) -> KernelCost:
    return KernelCost(flops=2.0 * n**3, bytes_moved=32.0 * n**2)


def _jacobi_cost(n: int) -> KernelCost:
    return KernelCost(flops=4.0 * n**2, bytes_moved=48.0 * n**2)


#: Registry of kernels with cost models, keyed by name.
KERNELS: dict[str, OffloadKernel] = {
    "inner_product": OffloadKernel("inner_product", inner_product, _inner_product_cost),
    "daxpy": OffloadKernel("daxpy", daxpy, _daxpy_cost),
    "dgemm": OffloadKernel("dgemm", dgemm, _dgemm_cost),
    "jacobi": OffloadKernel("jacobi", jacobi_sweep, _jacobi_cost),
}
