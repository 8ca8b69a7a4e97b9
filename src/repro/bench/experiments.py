"""Reusable experiment implementations — simulated platform only.

Every paper reproduction experiment is a plain function here, called by
the pytest benchmark modules under ``benchmarks/`` (which assert the
paper anchors and write the committed reports), so "what the paper
measured" exists exactly once.

All functions execute protocols/transfers on freshly built simulated
machines and return plain data (dicts keyed by method/size) in
*simulated* time, leaving rendering to the callers. Nothing here reads
a wall clock or starts a real transport: what the real path costs is
``python -m perfbench run``'s question.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.backends import DmaCommBackend, VeoCommBackend
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
    "measure_protocol_offload_cost",
    "measure_switch_contention",
    "measure_table4",
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


def measure_native_veo_call(reps: int = 60) -> float:
    """Simulated mean cost of a native empty ``veo_call`` (Fig. 9 "VEO"), in seconds."""
    machine = AuroraMachine(num_ves=1)
    proc = VeoProc(machine, 0)
    library = VeLibrary("libempty")
    library.add_function("empty", lambda: None)
    handle = proc.load_library(library)
    ctx = proc.open_context()
    symbol = handle.get_symbol("empty")
    stats = measure_sim(lambda: ctx.call_sync(symbol), machine.sim, reps=reps)
    proc.destroy()
    return stats.mean


def measure_protocol_offload_cost(
    backend_cls: Callable[..., object], reps: int = 60, **backend_kwargs
) -> float:
    """Simulated mean cost of an empty offload through a HAM protocol, in seconds."""
    runtime = Runtime(backend_cls(**backend_kwargs))
    stats = measure_sim(
        lambda: runtime.sync(1, f2f(_empty_kernel)), runtime.backend.sim, reps=reps
    )
    runtime.shutdown()
    return stats.mean


def measure_fig9(reps: int = 60) -> dict[str, float]:
    """All three Fig. 9 bars, in seconds."""
    return {
        "veo_native": measure_native_veo_call(reps),
        "ham_veo": measure_protocol_offload_cost(VeoCommBackend, reps),
        "ham_dma": measure_protocol_offload_cost(DmaCommBackend, reps),
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
