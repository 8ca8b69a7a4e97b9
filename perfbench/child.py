"""One child interpreter of a run: ``python -m perfbench.child '<json>'``.

Pins itself to one CPU, then imports the product, so the forked target
and the reactor thread inherit the affinity. Talks to the runner in JSON
lines on stdout; the last line is the result.

It drives the product only through its public API with default options
(plus the options the workload names in ``spec.py``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

from perfbench import spec
from perfbench.stats import median, percentile

PARAMS = json.loads(sys.argv[1]) if __name__ == "__main__" else {}
if PARAMS.get("cpu") is not None:
    os.sched_setaffinity(0, {PARAMS["cpu"]})

import numpy as np  # noqa: E402 - after pinning, like every product import

from repro.backends import DmaCommBackend  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.ham import f2f  # noqa: E402
from repro.offload import api  # noqa: E402

from perfbench import kernels  # noqa: E402
from perfbench.reference import Reference  # noqa: E402

#: echo arguments pickle to the same number of bytes in this range.
ARG_RANGE = (1 << 16, 1 << 31)
ARG_COUNT = 8192  # power of two: the loops index with a mask


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


class Session:
    """The workload's runtime, its seeded inputs and its failure counts."""

    def __init__(self, workload: spec.Workload, seed: int, fault: str | None) -> None:
        self.workload = workload
        rng = random.Random(seed)
        self.args = [rng.randrange(*ARG_RANGE) for _ in range(ARG_COUNT)]
        self.kernel = kernels.echo_wrong if fault == "wrong-result" else kernels.echo
        # Small integers in float64: any summation order gives the same sum.
        self.bulk_src = np.random.default_rng(seed).integers(
            0, 1000, spec.BULK_BYTES // 8
        ).astype(np.float64)
        self.bulk_dst = np.empty_like(self.bulk_src)
        self.bulk_buf = None
        self.reference = Reference()
        self.cursor = 0
        self.attempted = 0
        self.failed = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        options = dict(self.workload.init_options)
        if "telemetry" in options:
            options["telemetry"] = dict(options["telemetry"])
        transport = self.workload.transport
        api.init(DmaCommBackend() if transport == "dma" else transport, **options)
        self.bulk_buf = None
        segment = getattr(api.runtime().backend, "segment", None)
        if transport == "shm" and segment is not None:
            # Lets the runner unlink it if this process has to be killed.
            emit({"event": "segment", "name": segment.name})

    def stop(self) -> float:
        if self.bulk_buf is not None:
            api.free(self.bulk_buf)
            self.bulk_buf = None
        start = time.perf_counter()
        api.finalize()
        return time.perf_counter() - start

    def restart(self, error: BaseException) -> None:
        """Re-``init`` once after a fatal transport error; else give up.

        The caller then repeats the operation that raised: it fails only
        if it fails on the fresh runtime too (which ends this child).
        """
        if self.restarts:
            raise error
        self.restarts += 1
        emit({"event": "restart", "error": f"{type(error).__name__}: {error}"})
        try:
            api.finalize()
        except ReproError:
            pass
        self.start()

    # -- the loops (closed loop, one client thread) --------------------------
    def run_until(self, deadline_ns: int, samples: list, puts: list, gets: list) -> None:
        """Run the workload's loop (at least one operation) until the deadline."""
        loop = getattr(self, "_loop_" + self.workload.loop)
        while True:
            try:
                return loop(deadline_ns, samples, puts, gets)
            except ReproError as exc:
                self.restart(exc)

    def offloads(self, count: int) -> None:
        """At least ``count`` checked operations of the workload's own kind."""
        target = self.attempted + count
        while self.attempted < target:
            self.run_until(0, [], [], [])

    def _loop_sync(self, deadline_ns: int, samples: list, _puts: list, _gets: list) -> None:
        sync, kernel, args, clock = api.sync, self.kernel, self.args, time.perf_counter_ns
        mask = ARG_COUNT - 1
        first = i = self.cursor
        wrong = 0
        next_burst = self.reference.next_ns
        try:
            while True:
                arg = args[i & mask]
                start = clock()
                reply = sync(1, f2f(kernel, arg))
                end = clock()
                i += 1
                if reply == arg:
                    samples.append(end - start)
                else:
                    wrong += 1
                if end >= deadline_ns:
                    return
                if end >= next_burst:
                    next_burst = self.reference.burst()
        finally:
            self.cursor = i
            self.attempted += i - first
            self.failed += wrong

    def _loop_pipelined(self, deadline_ns: int, samples: list, _puts: list, _gets: list) -> None:
        async_, kernel, args, clock = api.async_, self.kernel, self.args, time.perf_counter_ns
        mask = ARG_COUNT - 1
        depth = self.workload.depth
        first = i = self.cursor
        wrong = 0
        try:
            while True:
                start = clock()
                posted = [
                    (async_(1, f2f(kernel, arg)), arg)
                    for arg in (args[k & mask] for k in range(i, i + depth))
                ]
                stale = wrong
                for future, arg in posted:
                    wrong += future.get() != arg
                    i += 1
                end = clock()
                if wrong == stale:
                    samples.append((end - start) / depth)
                if end >= deadline_ns:
                    return
                if end >= self.reference.next_ns:
                    self.reference.burst()
        finally:
            self.cursor = i
            self.attempted += i - first
            self.failed += wrong

    def _loop_bulk(self, deadline_ns: int, samples: list, puts: list, gets: list) -> None:
        while True:
            end = self.bulk_round(samples, puts, gets)
            if end >= deadline_ns:
                return
            if end >= self.reference.next_ns:
                self.reference.burst()

    def bulk_round(self, samples: list, puts: list, gets: list, vsum: bool = True) -> int:
        """put 1 MiB, ``vsum`` it, get it back; every byte and the sum checked."""
        clock = time.perf_counter_ns
        src, dst = self.bulk_src, self.bulk_dst
        if self.bulk_buf is None:
            self.bulk_buf = api.allocate(1, src.size)
        buf = self.bulk_buf
        # One element changes per round, so a stale buffer cannot pass.
        self.cursor += 1
        src[self.cursor % src.size] = float(self.cursor % 1000)
        t0 = clock()
        api.put(src, buf).get()
        t1 = clock()
        ok = not vsum or api.sync(1, f2f(kernels.vsum, buf, src.size)) == float(src.sum())
        t2 = clock()
        api.get(buf, dst).get()
        t3 = clock()
        self.attempted += 1
        if ok and np.array_equal(src, dst):
            samples.append(t3 - t0)
            puts.append(t1 - t0)
            gets.append(t3 - t2)
        else:
            self.failed += 1
        return t3

    def bulk_probe(self, rounds: int) -> tuple[list, list]:
        """ns inside ``put(...).get()`` and ``get(...).get()``, no offload between."""
        puts: list = []
        gets: list = []
        for _ in range(rounds):
            try:
                self.bulk_round([], puts, gets, vsum=False)
            except ReproError as exc:
                self.restart(exc)
        return puts, gets

    # -- one timed block -----------------------------------------------------
    def block(self, seconds: float) -> dict:
        samples: list = []
        puts: list = []
        gets: list = []
        reference = self.reference
        reference.reset()
        reference.burst()
        burst_wall0, burst_cpu0 = reference.wall_ns, reference.cpu_ns
        verified0 = self.attempted - self.failed
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        self.run_until(wall0 + int(seconds * 1e9), samples, puts, gets)
        # The bursts inside the loop are the harness's time, not the offloads'.
        wall = (time.perf_counter_ns() - wall0 - (reference.wall_ns - burst_wall0)) / 1e9
        cpu = (time.process_time_ns() - cpu0 - (reference.cpu_ns - burst_cpu0)) / 1e9
        verified = self.attempted - self.failed - verified0
        reference.burst()
        if not samples:
            return {"samples": 0}  # nothing verified: the runner reports it failed
        values = {
            "samples": verified,
            "reference_us": median(reference.samples_us),
            "offload_p50_us": median(samples) / 1e3,
            "offload_p90_us": percentile(samples, 90) / 1e3,
            "offload_p99_us": percentile(samples, 99) / 1e3,
            "host_cpu_us_per_offload": cpu / verified * 1e6,
            "offloads_per_s": verified / wall,
        }
        if puts and gets:
            mib = spec.BULK_BYTES / (1 << 20)
            values["put_MiBps"] = mib / (median(puts) / 1e9)
            values["get_MiBps"] = mib / (median(gets) / 1e9)
        return values


def main() -> None:
    workload = spec.WORKLOAD_BY_NAME[PARAMS["workload"]]
    session = Session(workload, PARAMS["seed"], PARAMS.get("fault"))
    session.start()
    session.offloads(1)
    result: dict = {
        # Wall clock, not perf_counter: the interval starts in the runner.
        "setup_s": time.time() - PARAMS["spawned_at"],
        "affinity": sorted(os.sched_getaffinity(0)),
    }
    session.offloads(PARAMS["warmup"])  # none in a set-up-only child
    if PARAMS["trace"]:
        from perfbench import layers

        traced = layers.TracedPass(session, PARAMS["seconds"], PARAMS["trace_path"])
        traced.runtime_phase()
        result["finalize_s"] = session.stop()
        traced.put("offload.finalize_s", result["finalize_s"])
        traced.backend_phase()
        traced.global_phase()
        result["per_layer"] = traced.values
    else:
        result["blocks"] = [
            session.block(PARAMS["seconds"]) for _ in range(PARAMS["blocks"])
        ]
        if workload.transport == "dma" and PARAMS["blocks"]:
            from perfbench import layers

            result["sim"] = layers.sim_costs(rounds=20)
        result["finalize_s"] = session.stop()
    result.update(
        attempted=session.attempted, failed=session.failed, restarts=session.restarts
    )
    emit({"event": "result", **result})


if __name__ == "__main__":
    main()
