"""Summary statistics for measurement series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Stats"]


@dataclass(frozen=True)
class Stats:
    """Summary of a measurement series (times in seconds).

    The paper reports averages over all runs (Sec. V); we additionally
    keep the spread, which for the deterministic simulator mainly
    documents protocol warm-up effects.
    """

    n: int
    mean: float
    minimum: float
    maximum: float
    std: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Stats":
        """Compute statistics from raw samples."""
        if not samples:
            raise ValueError("no samples")
        n = len(samples)
        mean = sum(samples) / n
        if n > 1:
            var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        else:
            var = 0.0
        return cls(
            n=n,
            mean=mean,
            minimum=min(samples),
            maximum=max(samples),
            std=math.sqrt(var),
        )

    def bandwidth(self, nbytes: int) -> float:
        """Mean bandwidth in bytes/s for transfers of ``nbytes``."""
        if self.mean <= 0:
            raise ValueError("non-positive mean duration")
        return nbytes / self.mean
