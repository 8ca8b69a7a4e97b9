"""The offloaded kernels.

Imported (hence registered in the global catalog) before ``init`` forks
a target, so host and target agree on the handler keys. Both are empty
on purpose: the benchmark prices the framework, not the kernel.
"""

from __future__ import annotations

from repro.ham import offloadable


@offloadable
def echo(i):
    return i


@offloadable
def empty():
    """The paper's empty kernel: what the simulated Fig. 9 costs are quoted for."""
    return None


@offloadable
def vsum(buf, n):
    return float(buf[:n].sum())


@offloadable
def echo_wrong(i):
    """Self-test only (``--fault wrong-result``): a reply that must be counted as failed."""
    return i + 1
