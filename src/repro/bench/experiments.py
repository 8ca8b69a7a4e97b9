"""Reusable experiment implementations.

Every paper reproduction experiment is a plain function here; the pytest
benchmark modules under ``benchmarks/`` *and* the command-line runner
(``python -m repro.bench.cli``) call the same code, so "what the paper
measured" exists exactly once.

All functions execute protocols/transfers on freshly built simulated
machines and return plain data (dicts keyed by method/size), leaving
rendering to the callers.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

import numpy as np

from repro.backends import (
    DmaCommBackend,
    TcpBackend,
    VeoCommBackend,
    create_backend,
    spawn_local_server,
)
from repro.bench.harness import measure_sim, scaled_reps
from repro.ham import f2f, offloadable
from repro.hw.memory import PAGE_4K, PAGE_HUGE_2M
from repro.hw.specs import MIB
from repro.machine import AuroraMachine
from repro.offload import Runtime
from repro.veo import VeoProc
from repro.veos.loader import VeLibrary

__all__ = [
    "FIG10_MAX_SIZE",
    "FIG10_SHM_LHM_MAX",
    "fig10_sizes",
    "measure_dma_manager_ablation",
    "measure_fig9",
    "measure_fig10",
    "measure_hugepages_ablation",
    "measure_multi_ve_scaling",
    "measure_native_veo_call",
    "measure_numa_penalty",
    "measure_pipeline_throughput",
    "measure_protocol_offload_cost",
    "measure_qos",
    "measure_saturation",
    "measure_shm_latency",
    "measure_switch_contention",
    "measure_table4",
    "measure_telemetry_empty_kernel",
    "measure_telemetry_overhead",
    "measure_tsdb_overhead",
]

FIG10_MAX_SIZE = 256 * MIB
FIG10_SHM_LHM_MAX = 4 * MIB


@offloadable
def _empty_kernel() -> None:
    """The empty kernel used by the offload-cost experiments."""
    return None


def fig10_sizes(max_size: int = FIG10_MAX_SIZE) -> list[int]:
    """The power-of-two size axis of Fig. 10."""
    return [2**e for e in range(3, int(math.log2(max_size)) + 1)]


# -- Fig. 9 ------------------------------------------------------------------


def measure_native_veo_call(reps: int = 60, *, full: bool = False):
    """Simulated cost of a native empty ``veo_call`` (Fig. 9 "VEO").

    Returns the mean in seconds; with ``full=True`` the whole
    :class:`~repro.bench.stats.Stats` (median/p95 for JSON artifacts).
    """
    machine = AuroraMachine(num_ves=1)
    proc = VeoProc(machine, 0)
    library = VeLibrary("libempty")
    library.add_function("empty", lambda: None)
    handle = proc.load_library(library)
    ctx = proc.open_context()
    symbol = handle.get_symbol("empty")
    stats = measure_sim(lambda: ctx.call_sync(symbol), machine.sim, reps=reps)
    proc.destroy()
    return stats if full else stats.mean


def measure_protocol_offload_cost(
    backend_cls: Callable[..., object],
    reps: int = 60,
    *,
    full: bool = False,
    **backend_kwargs,
):
    """Simulated cost of an empty offload through a HAM protocol.

    Returns the mean in seconds, or the whole ``Stats`` with ``full=True``.
    """
    runtime = Runtime(backend_cls(**backend_kwargs))
    stats = measure_sim(
        lambda: runtime.sync(1, f2f(_empty_kernel)), runtime.backend.sim, reps=reps
    )
    runtime.shutdown()
    return stats if full else stats.mean


def measure_fig9(reps: int = 60, *, full: bool = False) -> dict:
    """All three Fig. 9 bars, in seconds (``Stats`` with ``full=True``)."""
    return {
        "veo_native": measure_native_veo_call(reps, full=full),
        "ham_veo": measure_protocol_offload_cost(VeoCommBackend, reps, full=full),
        "ham_dma": measure_protocol_offload_cost(DmaCommBackend, reps, full=full),
    }


# -- Fig. 10 / Table IV ----------------------------------------------------------


def _collect(gen):
    def wrapper():
        yield from gen

    return wrapper()


def measure_veo_bandwidth(
    machine: AuroraMachine, proc: VeoProc, sizes: list[int], *, rep_base: int = 8
) -> tuple[list[float], list[float]]:
    """VEO read/write bandwidth (bytes/s) via a persistent VH buffer."""
    max_size = max(sizes)
    vh_buf = machine.vh.ddr.allocate(max_size, page_size=PAGE_HUGE_2M)
    ve_addr = proc.alloc_mem(max_size)
    machine.vh.ddr.view(vh_buf.addr, max_size)[:] = 7
    down, up = [], []
    for size in sizes:
        reps = scaled_reps(size, base=rep_base, floor=2)
        stats = measure_sim(
            lambda s=size: proc.transfer_region(
                machine.vh.ddr, vh_buf.addr, ve_addr, s, direction="vh_to_ve"
            ),
            machine.sim, reps=reps, warmup=1,
        )
        down.append(stats.bandwidth(size))
        stats = measure_sim(
            lambda s=size: proc.transfer_region(
                machine.vh.ddr, vh_buf.addr, ve_addr, s, direction="ve_to_vh"
            ),
            machine.sim, reps=reps, warmup=1,
        )
        up.append(stats.bandwidth(size))
    proc.free_mem(ve_addr)
    machine.vh.ddr.free(vh_buf)
    return down, up


def measure_udma_bandwidth(
    machine: AuroraMachine, sizes: list[int], *, rep_base: int = 8
) -> tuple[list[float], list[float]]:
    """User-DMA bandwidth via a DMAATB-registered shared segment."""
    max_size = max(sizes)
    ve = machine.ve(0)
    segment = machine.vh.shmget(max_size, huge_pages=True)
    entry = ve.dmaatb.register(segment, 0, max_size)
    staging = ve.hbm.allocate(max_size)
    sim = machine.sim

    def run(gen):
        sim.run(until=sim.process(gen))

    down, up = [], []
    for size in sizes:
        reps = scaled_reps(size, base=rep_base, floor=2)
        stats = measure_sim(
            lambda s=size: run(ve.udma.read_host(entry.vehva, ve.hbm, staging.addr, s)),
            sim, reps=reps, warmup=1,
        )
        down.append(stats.bandwidth(size))
        stats = measure_sim(
            lambda s=size: run(ve.udma.write_host(ve.hbm, staging.addr, entry.vehva, s)),
            sim, reps=reps, warmup=1,
        )
        up.append(stats.bandwidth(size))
    ve.hbm.free(staging)
    ve.dmaatb.unregister(entry)
    machine.vh.shmrm(segment)
    return down, up


def measure_shm_lhm_bandwidth(
    machine: AuroraMachine,
    sizes: list[int],
    *,
    cap: int = FIG10_SHM_LHM_MAX,
    rep_base: int = 8,
) -> tuple[list[float], list[float]]:
    """LHM (VH→VE) and SHM (VE→VH) bandwidth; NaN beyond the cap.

    SHM is timed at issue, as the paper's VE-side benchmark observes
    posted stores (EXPERIMENTS.md, deviation D1).
    """
    ve = machine.ve(0)
    segment = machine.vh.shmget(cap, huge_pages=True)
    entry = ve.dmaatb.register(segment, 0, cap)
    payload = np.random.default_rng(0).integers(0, 256, cap, dtype=np.uint8)
    sim = machine.sim

    down, up = [], []
    for size in sizes:
        if size > cap:
            down.append(float("nan"))
            up.append(float("nan"))
            continue
        reps = scaled_reps(size, base=rep_base, floor=2)

        def lhm_once(s=size):
            sim.run(until=sim.process(_collect(ve.lhm_read(entry.vehva, s))))

        def shm_once(s=size):
            sim.run(
                until=sim.process(ve.shm_write(entry.vehva, payload[:s].tobytes()))
            )

        down.append(measure_sim(lhm_once, sim, reps=reps, warmup=1).bandwidth(size))
        up.append(measure_sim(shm_once, sim, reps=reps, warmup=1).bandwidth(size))
        sim.run()  # flush posted-store visibility between sizes
    ve.dmaatb.unregister(entry)
    machine.vh.shmrm(segment)
    return down, up


def measure_fig10(
    sizes: list[int] | None = None, *, rep_base: int = 8
) -> dict[str, object]:
    """All six Fig. 10 curves (bandwidth in bytes/s per size)."""
    sizes = sizes if sizes is not None else fig10_sizes()
    max_size = max(sizes)
    machine = AuroraMachine(
        num_ves=1, ve_memory_bytes=max_size + 16 * MIB,
        vh_memory_bytes=max_size + 16 * MIB,
    )
    proc = VeoProc(machine, 0)
    veo_down, veo_up = measure_veo_bandwidth(machine, proc, sizes, rep_base=rep_base)
    udma_down, udma_up = measure_udma_bandwidth(machine, sizes, rep_base=rep_base)
    wl_down, wl_up = measure_shm_lhm_bandwidth(machine, sizes, rep_base=rep_base)
    proc.destroy()
    return {
        "sizes": sizes,
        "vh_to_ve": {
            "VEO Write": veo_down, "VE User DMA": udma_down, "VE LHM": wl_down,
        },
        "ve_to_vh": {
            "VEO Read": veo_up, "VE User DMA": udma_up, "VE SHM": wl_up,
        },
    }


def measure_table4(peak_sizes: list[int] | None = None) -> dict[str, float]:
    """Table IV peak bandwidths (bytes/s)."""
    peak_sizes = peak_sizes or [64 * MIB, 128 * MIB, 256 * MIB]
    max_size = max(peak_sizes)
    machine = AuroraMachine(
        num_ves=1,
        ve_memory_bytes=2 * max_size + 32 * MIB,
        vh_memory_bytes=max_size + 16 * MIB,
    )
    proc = VeoProc(machine, 0)
    veo_down, veo_up = measure_veo_bandwidth(machine, proc, peak_sizes, rep_base=2)
    udma_down, udma_up = measure_udma_bandwidth(machine, peak_sizes, rep_base=2)
    wl_down, wl_up = measure_shm_lhm_bandwidth(
        machine, [FIG10_SHM_LHM_MAX], rep_base=2
    )
    proc.destroy()
    return {
        "veo_write": max(veo_down),
        "veo_read": max(veo_up),
        "udma_read": max(udma_down),
        "udma_write": max(udma_up),
        "lhm": wl_down[0],
        "shm": wl_up[0],
    }


# -- smaller experiments -----------------------------------------------------------


def measure_numa_penalty(reps: int = 40) -> dict[str, float]:
    """S1: empty-offload cost per protocol from both CPU sockets."""
    out = {}
    for name, backend_cls in (("dma", DmaCommBackend), ("veo", VeoCommBackend)):
        for socket in (0, 1):
            runtime = Runtime(backend_cls(AuroraMachine(num_ves=1, socket=socket)))
            stats = measure_sim(
                lambda: runtime.sync(1, f2f(_empty_kernel)),
                runtime.backend.sim, reps=reps,
            )
            runtime.shutdown()
            out[f"{name}_socket{socket}"] = stats.mean
    return out


def measure_dma_manager_ablation(
    sizes: list[int] | None = None,
) -> dict[str, dict[int, float]]:
    """A1: VEO write bandwidth with the classic vs 4dma DMA manager."""
    sizes = sizes or [MIB, 8 * MIB, 64 * MIB]
    out: dict[str, dict[int, float]] = {}
    for label, four_dma in (("classic", False), ("4dma", True)):
        machine = AuroraMachine(
            num_ves=1, four_dma=four_dma,
            ve_memory_bytes=max(sizes) + 32 * MIB,
            vh_memory_bytes=max(sizes) + 32 * MIB,
        )
        proc = VeoProc(machine, 0)
        down, _up = measure_veo_bandwidth(machine, proc, sizes, rep_base=4)
        proc.destroy()
        out[label] = dict(zip(sizes, down))
    return out


def measure_hugepages_ablation(
    sizes: list[int] | None = None,
) -> dict[str, dict[int, float]]:
    """A2: VEO write bandwidth with huge vs 4 KiB pages on the VH buffer."""
    sizes = sizes or [256 * 1024, 4 * MIB, 32 * MIB]
    machine = AuroraMachine(
        num_ves=1, ve_memory_bytes=max(sizes) + 16 * MIB,
        vh_memory_bytes=2 * max(sizes) + 32 * MIB,
    )
    proc = VeoProc(machine, 0)
    ve_addr = proc.alloc_mem(max(sizes))
    out: dict[str, dict[int, float]] = {}
    for label, page in (("huge", PAGE_HUGE_2M), ("small", PAGE_4K)):
        vh_buf = machine.vh.ddr.allocate(max(sizes), page_size=page)
        out[label] = {}
        for size in sizes:
            stats = measure_sim(
                lambda s=size: proc.transfer_region(
                    machine.vh.ddr, vh_buf.addr, ve_addr, s,
                    direction="vh_to_ve", page_size=page,
                ),
                machine.sim, reps=scaled_reps(size, base=4, floor=2), warmup=1,
            )
            out[label][size] = stats.bandwidth(size)
        machine.vh.ddr.free(vh_buf)
    proc.destroy()
    return out


def measure_multi_ve_scaling(
    ve_counts: list[int] | None = None,
    *,
    kernel_time: float = 50e-6,
    rounds: int = 12,
) -> dict[int, float]:
    """M1: DMA-protocol offload throughput (offloads/s) vs VE count."""
    ve_counts = ve_counts or [1, 2, 4, 8]
    out = {}
    for num_ves in ve_counts:
        machine = AuroraMachine(num_ves=num_ves)
        backend = DmaCommBackend(machine)
        backend.kernel_cost_fn = lambda functor: kernel_time
        runtime = Runtime(backend)
        sim = backend.sim
        targets = runtime.targets()
        for node in targets:
            runtime.sync(node, f2f(_empty_kernel))
        start = sim.now
        completed = 0
        for _ in range(rounds):
            futures = [runtime.async_(node, f2f(_empty_kernel)) for node in targets]
            for future in futures:
                future.get()
                completed += 1
        out[num_ves] = completed / (sim.now - start)
        runtime.shutdown()
    return out


def measure_pipeline_throughput(
    invokes: int = 48,
    *,
    kernel_seconds: float = 0.02,
    workers: int = 4,
    window: int = 16,
) -> dict[str, Any]:
    """P2: pipelined vs serial TCP invoke throughput (wall clock).

    The serial baseline issues ``sync`` offloads one at a time, so every
    invocation pays the full roundtrip plus kernel latency. The
    pipelined run keeps up to ``window`` invocations in flight through
    the channel's correlation-id table while the target's worker pool
    overlaps the kernels — sustained throughput approaches
    ``workers / kernel_seconds``. The kernel is a pure GIL-releasing
    sleep, so the measurement isolates transport pipelining from
    compute contention.

    Returns throughputs (invokes/s), wall times, the speedup, and the
    run parameters under ``params`` (a ``--quick`` run and the full
    baseline differ there without anything having regressed).
    """
    from repro.workloads.kernels import sleep_kernel

    results: dict[str, Any] = {}
    for mode in ("serial", "pipelined"):
        process, address = spawn_local_server(workers=workers)
        backend = TcpBackend(
            address, on_shutdown=lambda p=process: p.join(timeout=10)
        )
        runtime = Runtime(backend, window=window)
        runtime.sync(1, f2f(sleep_kernel, 0.0))  # warm the path
        start = time.perf_counter()
        if mode == "serial":
            for _ in range(invokes):
                runtime.sync(1, f2f(sleep_kernel, kernel_seconds))
        else:
            futures = [
                runtime.async_(1, f2f(sleep_kernel, kernel_seconds))
                for _ in range(invokes)
            ]
            for future in futures:
                future.get()
        elapsed = time.perf_counter() - start
        results[f"{mode}_seconds"] = elapsed
        results[f"{mode}_throughput"] = invokes / elapsed
        runtime.shutdown()
    results["speedup"] = (
        results["pipelined_throughput"] / results["serial_throughput"]
    )
    results["params"] = {
        "invokes": invokes, "kernel_seconds": kernel_seconds,
        "workers": workers, "window": window,
    }
    return results


def measure_saturation(
    depths: "tuple[int, ...]" = (64, 256, 1024, 4096, 10_000),
    *,
    workers: int = 4,
    shm_cap: int = 512,
) -> dict:
    """S2: pipelined small-message invoke rate vs in-flight depth.

    The event-loop acceptance experiment: empty-kernel invokes (≤256 B
    frames) posted ``depth`` at a time through one connection, all
    replies multiplexed on the shared reactor thread, once per depth
    and transport.

    The window equals the offered depth for TCP; shm is clamped to
    ``shm_cap`` because in-flight frames live inside the fixed-size
    ring segment.

    Returns ``{transport: {depth_<n>: {rate}}, params}`` — rates in
    invokes/s, named so the regression gate treats them as
    higher-is-better.
    """
    results: dict = {
        "params": {"workers": workers, "depths": list(depths)},
        "tcp": {},
        "shm": {},
    }
    for name, cap in (("tcp", max(depths)), ("shm", shm_cap)):
        backend = create_backend(name, workers=workers)
        runtime = Runtime(backend, window=cap)
        try:
            for _ in range(100):  # warm the path end to end
                runtime.sync(1, f2f(_empty_kernel))
            for depth in depths:
                runtime.window.set_limit(min(depth, cap))
                start = time.perf_counter()
                futures = [
                    runtime.async_(1, f2f(_empty_kernel))
                    for _ in range(depth)
                ]
                for future in futures:
                    future.get()
                results[name][f"depth_{depth}"] = {
                    "rate": depth / (time.perf_counter() - start)
                }
        finally:
            runtime.shutdown()
    return results


def measure_telemetry_overhead(
    invokes: int = 100, *, kernel_seconds: float = 0.01, warmup: int = 20
) -> dict[str, Any]:
    """T1: telemetry sampling overhead on the TCP round trip.

    Measures the mean ``sync`` round trip of a representative kernel
    (``sleep_kernel(kernel_seconds)``, millisecond scale like the
    paper's offload workloads) under four telemetry modes on identical
    fresh servers: disabled entirely, and head-sampling at rates
    0.0 / 0.01 / 1.0 (each with the tail pipeline installed, as
    ``offload.init(telemetry={"sample_rate": p})`` would). The recorder
    is enabled *before* the server fork so the target side records (or
    skips) spans exactly as in production.

    The headline metrics are the ``overhead_rate_*`` ratios vs the
    disabled baseline — the acceptance bar is <= 5% at rate 0.01. The
    ratios divide out machine speed, so they regress far less noisily
    than the absolute means. The kernel carries real work on purpose:
    on a single-CPU container every microsecond of two-process Python
    bookkeeping serializes into an empty-kernel round trip, which
    measures context-switch amplification, not telemetry cost. What the
    ratio hides — 5 % of this kernel is 500 us — is measured by
    :func:`measure_telemetry_empty_kernel`, in-process and in absolute us.

    Two extra modes bound the *flight recorder* (always-on post-mortem
    ring, :mod:`repro.telemetry.flightrecorder`): ``flight_off``
    disables its noting entirely, while ``disabled`` (the sampling
    baseline) runs with the recorder armed, as every process does by
    default. ``overhead_flight_on`` is their ratio and must clear the
    same <= 5% bar — "always-on" is only defensible while it stays
    free on the happy path.
    """
    from repro.telemetry import flightrecorder
    from repro.telemetry import recorder as telemetry_recorder
    from repro.telemetry.sampling import HeadSampler, TailPipeline
    from repro.workloads.kernels import sleep_kernel

    # (name, head-sampling rate or None for telemetry-off, flight ring
    # noting enabled). The flight ring is on in every mode but one —
    # exactly how production runs.
    modes: list[tuple[str, float | None, bool]] = [
        ("flight_off", None, False),
        ("disabled", None, True),
        ("rate_0", 0.0, True),
        ("rate_0_01", 0.01, True),
        ("rate_1", 1.0, True),
    ]
    results: dict[str, Any] = {}
    flight = flightrecorder.get()
    for mode, rate, flight_on in modes:
        telemetry_recorder.disable()
        try:
            flight.enabled = flight_on
            if rate is not None:
                recorder = telemetry_recorder.enable()
                recorder.sampler = HeadSampler(rate)
                recorder.pipeline = TailPipeline()
            process, address = spawn_local_server()
            backend = TcpBackend(
                address, on_shutdown=lambda p=process: p.join(timeout=10)
            )
            runtime = Runtime(backend)
            for _ in range(warmup):
                runtime.sync(1, f2f(sleep_kernel, 0.0))
            start = time.perf_counter()
            for _ in range(invokes):
                runtime.sync(1, f2f(sleep_kernel, kernel_seconds))
            elapsed = time.perf_counter() - start
            runtime.shutdown()
        finally:
            telemetry_recorder.disable()
            flight.enabled = True
        results[f"{mode}_mean_us"] = elapsed / invokes * 1e6
    for mode, _rate, _flight_on in modes[2:]:
        results[f"overhead_{mode}"] = (
            results[f"{mode}_mean_us"] / results["disabled_mean_us"]
        )
    results["overhead_flight_on"] = (
        results["disabled_mean_us"] / results["flight_off_mean_us"]
    )
    results["params"] = {"invokes": invokes, "kernel_seconds": kernel_seconds}
    return results


def measure_telemetry_empty_kernel(
    rounds: int = 15, *, invokes: int = 300, warmup: int = 50
) -> dict[str, Any]:
    """T1b: what telemetry adds to one *empty* offload, in microseconds.

    The figure :func:`measure_telemetry_overhead` cannot see (5 % of its
    10 ms kernel is 500 us). An empty kernel on ``local`` — telemetry's
    own path length, no context switch — is timed with telemetry off and
    under ``offload.init(telemetry={"sample_rate": p})`` (``init``'s own
    set-up) for p = 0, 0.01 and 1. The modes alternate inside each of
    ``rounds`` rounds, so a slow stretch of the machine hits all of them;
    a mode's figure is the median over rounds of its mean offload.
    ``added_cost_us_*`` (mode minus ``disabled``) are absolute: compare
    them with :mod:`repro.bench.regression` against a baseline of the
    same machine class, not against a constant.
    """
    from repro.backends import LocalBackend
    from repro.offload import api as offload_api
    from repro.telemetry import recorder as telemetry_recorder

    modes: list[tuple[str, float | None]] = [
        ("disabled", None), ("rate_0", 0.0), ("rate_0_01", 0.01), ("rate_1", 1.0),
    ]
    samples: dict[str, list[float]] = {mode: [] for mode, _rate in modes}
    functor = f2f(_empty_kernel)
    for _ in range(rounds):
        for mode, rate in modes:
            telemetry_recorder.disable()
            runtime = offload_api.init(
                LocalBackend(),
                telemetry=False if rate is None else {"sample_rate": rate},
            )
            try:
                for _ in range(warmup):
                    runtime.sync(1, functor)
                start = time.perf_counter()
                for _ in range(invokes):
                    runtime.sync(1, functor)
                elapsed = time.perf_counter() - start
            finally:
                offload_api.finalize()
                telemetry_recorder.disable()
            samples[mode].append(elapsed / invokes * 1e6)
    # ("cost" in every key: bench.regression reads the direction off it.)
    results: dict[str, Any] = {
        f"cost_us_{mode}": float(np.median(values))
        for mode, values in samples.items()
    }
    for mode, _rate in modes[1:]:
        results[f"added_cost_us_{mode}"] = (
            results[f"cost_us_{mode}"] - results["cost_us_disabled"]
        )
    results["params"] = {"rounds": rounds, "invokes": invokes}
    return results


def measure_tsdb_overhead(
    invokes: int = 100, *, kernel_seconds: float = 0.01, warmup: int = 20
) -> dict[str, float]:
    """T2: TSDB sampler overhead on the TCP round trip.

    Measures the mean ``sync`` round trip of the same representative
    millisecond-scale kernel as :func:`measure_telemetry_overhead`, with
    the event recorder enabled in both modes, and compares telemetry
    alone (``tsdb_off``) against telemetry plus the in-process
    time-series sampler ticking at its production 1 s interval with the
    runtime attached (``tsdb_on``, as
    ``offload.init(telemetry={"tsdb": True})`` configures it).

    The headline metric is the ``overhead_tsdb_on`` ratio — the
    acceptance bar is <= 2%. The sampler runs on its own daemon thread
    and each tick is one registry snapshot plus one scoreboard refresh,
    so on a 10 ms kernel the steady-state cost should be far below the
    bar; the gate exists to catch a regression that moves sampling work
    onto the offload path (per-invoke hooks, lock contention on the
    registry).
    """
    from repro.telemetry import recorder as telemetry_recorder
    from repro.telemetry.tsdb import install_tsdb
    from repro.workloads.kernels import sleep_kernel

    results: dict[str, float] = {}
    for mode, sampler_on in (("tsdb_off", False), ("tsdb_on", True)):
        telemetry_recorder.disable()
        tsdb = None
        recorder = telemetry_recorder.enable()
        try:
            if sampler_on:
                tsdb = install_tsdb(recorder, interval=1.0)
            process, address = spawn_local_server()
            backend = TcpBackend(
                address, on_shutdown=lambda p=process: p.join(timeout=10)
            )
            runtime = Runtime(backend)
            if tsdb is not None:
                tsdb.attach_runtime(runtime)
                tsdb.start()
            for _ in range(warmup):
                runtime.sync(1, f2f(sleep_kernel, 0.0))
            start = time.perf_counter()
            for _ in range(invokes):
                runtime.sync(1, f2f(sleep_kernel, kernel_seconds))
            elapsed = time.perf_counter() - start
            runtime.shutdown()
        finally:
            if tsdb is not None:
                tsdb.stop()
                recorder.tsdb = None
            telemetry_recorder.disable()
        results[f"{mode}_mean_us"] = elapsed / invokes * 1e6
    results["overhead_tsdb_on"] = (
        results["tsdb_on_mean_us"] / results["tsdb_off_mean_us"]
    )
    results["invokes"] = float(invokes)
    results["kernel_seconds"] = kernel_seconds
    return results


def _burst_ping_tcp(backend: TcpBackend, depth: int) -> float:
    """Seconds for one depth-``depth`` pipelined ping burst over TCP.

    Mirrors ``FramedClient._roundtrip`` but files all ``depth``
    expectations before waiting, so replies stream back while later
    requests are still going out — the transport-level analogue of the
    invoke window, with serialization cost excluded.
    """
    import threading

    from repro.backends.tcp import OP_PING

    start = time.perf_counter()
    boxes = []
    for _ in range(depth):
        corr = backend._next_corr()
        box: dict = {"op": OP_PING, "event": threading.Event()}
        with backend._pending_lock:
            backend._pending[corr] = ("sync", box)
        backend._send(OP_PING, corr)
        boxes.append(box)
    for box in boxes:
        if not box["event"].wait(10.0):
            raise RuntimeError("tcp ping burst timed out")
    return time.perf_counter() - start


def _burst_ping_shm(backend, depth: int) -> float:
    """Seconds for one depth-``depth`` pipelined ping burst over shm.

    Holds the drive lock for the whole burst (the bench owns the
    backend, so no other thread is waiting on replies) and pumps the
    reply ring directly — the shm analogue of :func:`_burst_ping_tcp`.
    """
    from repro.backends.base import InvokeHandle
    from repro.backends.tcp import OP_PING, OP_REPLY_BIT

    ring_out, ring_in = backend._h2t, backend._t2h
    expected = OP_PING | OP_REPLY_BIT
    with backend._drive_lock:
        start = time.perf_counter()
        for _ in range(depth):
            corr = next(InvokeHandle._ids)
            with backend._send_lock:
                ring_out.write_frame(OP_PING, corr, ())
        for _ in range(depth):
            ring_in.wait_readable(10.0, stop=backend._peer_error_cb)
            op, _corr, _body = ring_in.read_frame()
            if op != expected:
                raise RuntimeError(f"unexpected reply op {op:#x}")
        return time.perf_counter() - start


def measure_shm_latency(
    samples: int = 300,
    *,
    rounds: int = 4,
    burst_depth: int = 8,
    burst_rounds: int = 40,
    workers: int = 2,
) -> dict[str, float]:
    """S1: shared-memory vs TCP transport on localhost (wall clock).

    The real-path counterpart of the paper's Sec. IV-B headline (6.1 µs
    shm/DMA offload vs 432 µs daemon-mediated VEO): the same two-process
    machine measures

    * **small-message RTT** — synchronous ``ping`` (empty active
      message, full request/reply), per-call samples interleaved
      ``rounds`` times between the two transports so scheduler drift
      hits both equally; the headline is the ratio of medians; and
    * **pipelined message throughput** — depth-``burst_depth`` ping
      bursts (all requests posted before the first reply is awaited),
      the transport-level analogue of the in-flight invoke window with
      serialization excluded, reported as messages/second.

    On a single-CPU host every synchronous RTT pays two mandatory
    context switches (~2-3 µs) that bound the shm advantage; with
    host and target on separate cores the shm side busy-spins through
    the wait and the gap widens by roughly another order of magnitude,
    which is exactly the paper's LHM/SHM-polling argument.
    """
    import statistics

    from repro.backends.shm import ShmBackend, spawn_shm_server

    shm_process, segment = spawn_shm_server(workers=workers)
    shm = ShmBackend(
        segment,
        alive_fn=shm_process.is_alive,
        on_shutdown=lambda: shm_process.join(timeout=10),
    )
    tcp_process, address = spawn_local_server(workers=workers)
    tcp = TcpBackend(
        address, on_shutdown=lambda: tcp_process.join(timeout=10)
    )
    try:
        for _ in range(200):  # warm both paths (allocators, caches, JITs)
            shm.ping(1)
            tcp.ping(1)

        shm_samples: list[float] = []
        tcp_samples: list[float] = []
        for _ in range(rounds):
            for backend, sink in ((shm, shm_samples), (tcp, tcp_samples)):
                for _ in range(samples):
                    start = time.perf_counter()
                    backend.ping(1)
                    sink.append((time.perf_counter() - start) * 1e6)

        shm_burst: list[float] = []
        tcp_burst: list[float] = []
        for _ in range(5):  # burst warmup
            _burst_ping_shm(shm, burst_depth)
            _burst_ping_tcp(tcp, burst_depth)
        for _ in range(burst_rounds):
            shm_burst.append(_burst_ping_shm(shm, burst_depth))
            tcp_burst.append(_burst_ping_tcp(tcp, burst_depth))
    finally:
        shm.shutdown()
        tcp.shutdown()

    def p95(values: list[float]) -> float:
        return statistics.quantiles(values, n=20)[18]

    shm_rtt = statistics.median(shm_samples)
    tcp_rtt = statistics.median(tcp_samples)
    shm_msgs = burst_depth / statistics.median(shm_burst)
    tcp_msgs = burst_depth / statistics.median(tcp_burst)
    return {
        "shm_rtt_time_us": shm_rtt,
        "shm_rtt_p95_time_us": p95(shm_samples),
        "shm_rtt_mean_time_us": statistics.mean(shm_samples),
        "tcp_rtt_time_us": tcp_rtt,
        "tcp_rtt_p95_time_us": p95(tcp_samples),
        "tcp_rtt_mean_time_us": statistics.mean(tcp_samples),
        "transport_rtt_speedup": tcp_rtt / shm_rtt,
        "shm_throughput": shm_msgs,
        "tcp_throughput": tcp_msgs,
        "transport_throughput_speedup": shm_msgs / tcp_msgs,
        "samples": float(samples * rounds),
        "burst_depth": float(burst_depth),
        "burst_rounds": float(burst_rounds),
        "workers": float(workers),
    }


def measure_switch_contention(transfer: int = 16 * MIB) -> dict[str, float]:
    """M2: aggregate VE→VH user-DMA bandwidth by VE placement."""

    def aggregate(ve_indices: list[int]) -> float:
        machine = AuroraMachine(num_ves=8, ve_memory_bytes=transfer + 16 * MIB)
        sim = machine.sim
        done = []
        for index in ve_indices:
            ve = machine.ve(index)
            segment = machine.vh.shmget(transfer)
            entry = ve.dmaatb.register(segment, 0, transfer)
            staging = ve.hbm.allocate(transfer)
            done.append(
                sim.process(
                    ve.udma.write_host(ve.hbm, staging.addr, entry.vehva, transfer)
                )
            )
        start = sim.now
        sim.run(until=sim.all_of(done))
        return len(ve_indices) * transfer / (sim.now - start)

    return {
        "one_ve": aggregate([0]),
        "four_same_switch": aggregate([0, 1, 2, 3]),
        "four_across_switches": aggregate([0, 1, 4, 5]),
        "eight": aggregate(list(range(8))),
    }


def measure_qos(
    premium_ops: int = 80,
    *,
    noisy_threads: int = 6,
    kernel_seconds: float = 0.004,
    window: int = 4,
    straggler_invokes: int = 160,
    straggle_every: int = 32,
    straggle_seconds: float = 0.25,
) -> dict[str, float]:
    """Q1: overload-resilient serving — fair queuing and hedged requests.

    Two measurements against live TCP stacks:

    * **Fairness**: ``noisy_threads`` best-effort workers flood the
      backend while one premium tenant keeps a steady trickle of
      ``premium_ops`` offloads. Measured twice — over the plain FIFO
      window and over the QoS layer (weighted fair window, premium
      weight 8 / priority PREMIUM) — the headline is the premium
      tenant's p99 latency and the FIFO/QoS ratio
      (``qos_premium_speedup``).
    * **Hedging**: ``straggler_invokes`` offloads of
      :func:`~repro.workloads.kernels.intermittent_straggler` (every
      ``straggle_every``-th call on a target sleeps ``straggle_seconds``
      instead of ``kernel_seconds``) against a two-target
      :class:`~repro.backends.fanout.FanoutBackend`, without and with a
      :class:`~repro.offload.hedging.HedgePolicy`. The headline is the
      max (tail) latency ratio (``hedge_tail_speedup``) and the
      duplicate-execution rate (``hedge_duplicate_overhead``, bounded
      near ``1 / straggle_every``).
    """
    import threading

    from repro.backends import FanoutBackend
    from repro.errors import ReproError
    from repro.offload import (
        BEST_EFFORT,
        PREMIUM,
        HedgePolicy,
        QoSConfig,
        ResiliencePolicy,
        TenantPolicy,
    )
    from repro.telemetry import recorder as telemetry_recorder
    from repro.workloads.kernels import intermittent_straggler, sleep_kernel

    results: dict[str, float] = {}

    # -- fairness under flood: FIFO window vs weighted fair window ---------
    qos_config = QoSConfig(
        tenants={
            "premium": TenantPolicy(weight=8.0, priority=PREMIUM),
            "noisy": TenantPolicy(weight=1.0, priority=BEST_EFFORT),
        },
        window=window,
        max_queue_depth=4 * noisy_threads,
    )
    for mode, qos in (("fifo", None), ("qos", qos_config)):
        process, address = spawn_local_server(workers=2)
        backend = TcpBackend(
            address, on_shutdown=lambda p=process: p.join(timeout=10)
        )
        runtime = (
            Runtime(backend, window=window) if qos is None
            else Runtime(backend, qos=qos)
        )
        runtime.sync(1, f2f(sleep_kernel, 0.0), tenant="premium")  # warm
        stop = threading.Event()

        def flood() -> None:
            functor = f2f(sleep_kernel, kernel_seconds)
            while not stop.is_set():
                try:
                    runtime.sync(1, functor, tenant="noisy", timeout=5.0)
                except ReproError:
                    time.sleep(0.001)  # shed/rejected: back off, retry

        workers = [
            threading.Thread(target=flood, daemon=True)
            for _ in range(noisy_threads)
        ]
        for worker in workers:
            worker.start()
        time.sleep(0.1)  # let the flood saturate the window first
        latencies = []
        functor = f2f(sleep_kernel, kernel_seconds)
        for _ in range(premium_ops):
            begin = time.perf_counter()
            runtime.sync(1, functor, tenant="premium", timeout=10.0)
            latencies.append(time.perf_counter() - begin)
            time.sleep(0.002)  # a steady trickle, not a counter-flood
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)
        runtime.shutdown()
        results[f"premium_p99_latency_{mode}"] = float(
            np.percentile(latencies, 99)
        )
        results[f"premium_mean_latency_{mode}"] = float(np.mean(latencies))
    results["qos_premium_speedup"] = (
        results["premium_p99_latency_fifo"] / results["premium_p99_latency_qos"]
    )

    # -- hedged requests vs a deterministic intermittent straggler ---------
    # min_wait sits 5x above the base service time (far below the
    # straggle), so TCP round-trip jitter on normal calls cannot fire
    # spurious hedges and inflate the duplicate rate.
    hedge_policy = HedgePolicy(
        percentile=95.0, multiplier=1.0, min_wait=5 * kernel_seconds,
        min_samples=10,
    )
    for mode, hedge in (("unhedged", None), ("hedged", hedge_policy)):
        telemetry_recorder.disable()
        recorder = telemetry_recorder.enable()
        servers = [spawn_local_server(workers=2) for _ in range(2)]
        inners = [
            TcpBackend(address, on_shutdown=lambda p=proc: p.join(timeout=10))
            for proc, address in servers
        ]
        backend = FanoutBackend(inners)
        policy = ResiliencePolicy(hedge=hedge)
        runtime = Runtime(backend, policy=policy)
        functor = f2f(
            intermittent_straggler,
            kernel_seconds, straggle_seconds, straggle_every, 1.0,
        )
        runtime.sync(1, functor, idempotent=True)  # warm both the paths
        # Steady-state trigger: the rolling profile has already seen the
        # kernel's normal service time (seeded directly — equivalent to
        # a warmed-up serving process, without burning straggle slots).
        for _ in range(3 * hedge_policy.min_samples):
            recorder.profiles.record(
                functor.type_name, int(kernel_seconds * 1e9)
            )
        latencies = []
        for _ in range(straggler_invokes):
            begin = time.perf_counter()
            runtime.sync(1, functor, idempotent=True, timeout=10.0)
            latencies.append(time.perf_counter() - begin)
        hedges = (
            runtime.stats()["hedging"]["hedges"] if hedge is not None else 0
        )
        runtime.shutdown()
        telemetry_recorder.disable()
        results[f"{mode}_max_latency"] = float(np.max(latencies))
        results[f"{mode}_p99_latency"] = float(np.percentile(latencies, 99))
        if hedge is not None:
            results["hedge_duplicate_overhead"] = hedges / straggler_invokes
    results["hedge_tail_speedup"] = (
        results["unhedged_max_latency"] / results["hedged_max_latency"]
    )
    results["premium_ops"] = float(premium_ops)
    results["noisy_threads"] = float(noisy_threads)
    results["straggler_invokes"] = float(straggler_invokes)
    results["straggle_every"] = float(straggle_every)
    return results
