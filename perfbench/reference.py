"""The machine-speed reference interleaved with every timed loop.

The sandbox this benchmark runs in slows down by up to 2x for seconds at
a time (busy neighbours; the guest sees no steal time), and an offload
slows down with it. Every 20 ms the timed loops therefore pause for a
burst of a fixed pure-stdlib operation — pickle round trip, dict store,
method call: the instruction mix of an offload, none of its code — and
the runner scales each block's values by ``REFERENCE_NOMINAL_US`` over
the block's median burst cost. On a quiet machine of the kind the
nominal was taken on the factor is 1 and the reported microseconds are
the measured ones; on a busy one they are what a quiet machine would
have shown. Raw values and burst costs are kept in ``results.json``.
"""

from __future__ import annotations

import pickle
import time

#: Pause the loop for a burst this often ...
CHUNK_NS = 20_000_000
#: ... of this many reference operations (~0.5 ms: 2 % of the loop's time),
BURST_CALLS = 50
#: after this many untimed ones: the loop it interrupts has evicted the
#: reference's code and data to a degree that depends on the workload, and
#: the burst is to read the machine's speed, not the workload's footprint.
BURST_WARMUP_CALLS = 16


class Reference:
    def __init__(self) -> None:
        self.table: dict[int, tuple] = {}
        self.reset()

    def reset(self) -> None:
        self.samples_us: list[float] = []
        self.wall_ns = 0
        self.cpu_ns = 0
        #: ``perf_counter_ns`` after which the loop owes the next burst.
        self.next_ns = 0

    def step(self, i: int) -> int:
        self.table[i & 255] = pickle.loads(pickle.dumps((i, "x", 3.0)))
        return len(self.table)

    def burst(self) -> int:
        """Run one burst, account for its time; returns ``next_ns``."""
        step = self.step
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        for i in range(BURST_WARMUP_CALLS):
            step(i)
        start = time.perf_counter_ns()
        for i in range(BURST_CALLS):
            step(i)
        end = time.perf_counter_ns()
        self.cpu_ns += time.process_time_ns() - cpu0
        self.wall_ns += end - wall0
        self.samples_us.append((end - start) / BURST_CALLS / 1e3)
        self.next_ns = end + CHUNK_NS
        return self.next_ns
