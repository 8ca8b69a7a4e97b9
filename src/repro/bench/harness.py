"""Measurement harness implementing the paper's protocol (Sec. V).

"Measurements for offloading kernels were repeated 10^6 times, data
transfers 10^3 times for every data size. Timings were preceded by 10
warm-up iterations to avoid distortion from effects like cold caches.
... All shown numbers are averages over all runs."

The simulator is deterministic, so far fewer repetitions suffice for the
same averages; :func:`scaled_reps` keeps the *shape* of the protocol
(warm-ups, more reps for cheap operations) while bounding the run time
of the benchmark suite. Only simulated time is measured here; the real
path's wall clock belongs to ``perfbench/``.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.stats import Stats
from repro.sim import Simulator

__all__ = ["measure_sim", "scaled_reps"]

#: Paper repetition counts (kept for reference / reports).
PAPER_OFFLOAD_REPS = 1_000_000
PAPER_TRANSFER_REPS = 1_000
PAPER_WARMUP = 10


def scaled_reps(nbytes: int, *, base: int = 50, floor: int = 3) -> int:
    """Repetitions for a transfer of ``nbytes``.

    The paper uses 10^3 repetitions per size; the simulator moves real
    bytes, so repetitions shrink with size to keep total copied data
    bounded (~100 MiB per measurement point).
    """
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    budget = 100 * 2**20
    return max(floor, min(base, budget // nbytes))


def measure_sim(
    operation: Callable[[], None],
    sim: Simulator,
    *,
    reps: int = 50,
    warmup: int = PAPER_WARMUP,
) -> Stats:
    """Measure the simulated duration of ``operation``.

    ``operation`` must drive the simulator to completion of one instance
    of the measured activity (the backends' blocking calls do).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for _ in range(warmup):
        operation()
    samples = []
    for _ in range(reps):
        start = sim.now
        operation()
        samples.append(sim.now - start)
    return Stats.from_samples(samples)

