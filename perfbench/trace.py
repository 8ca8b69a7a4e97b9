"""In-memory spans recorded from the benchmark's own files.

A span is ``[name, start_ns, end_ns, parent, offload_id]``; ``parent`` is
the index of the span that caused it (-1 for a root). Spans stay in
memory while the loop runs and are written out when the child ends.
Spans inside the program are a later issue.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from perfbench.stats import median

FIELDS = ("name", "start_ns", "end_ns", "parent", "offload_id")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int, offload_id: int) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, offload_id])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    def self_times_us(self) -> dict[str, float]:
        """Median self time per span name: duration minus what children cover."""
        covered: dict[int, int] = defaultdict(int)
        for _name, start, end, parent, _oid in self.spans:
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                covered[parent] += max(0, min(end, p_end) - max(start, p_start))
        by_name: dict[str, list[int]] = defaultdict(list)
        for index, (name, start, end, _parent, _oid) in enumerate(self.spans):
            by_name[name].append(end - start - covered[index])
        return {name: median(values) / 1e3 for name, values in by_name.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump([dict(zip(FIELDS, span)) for span in self.spans], out)
