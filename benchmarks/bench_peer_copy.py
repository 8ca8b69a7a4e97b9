"""Experiment M3 (extension) — direct VE-to-VE copies via peer user DMA.

The paper (Sec. I-B) notes the DMAATB can map *other VEs'* memory, making
VE-to-VE user DMA possible; its Table II ``copy`` is host-orchestrated.
This experiment compares both data paths for target-to-target copies:

* **host-staged** (the base implementation / VEO protocol): one
  privileged-DMA read to the host plus one privileged-DMA write back —
  two ~100 µs-latency operations;
* **peer DMA** (the DMA backend's ``copy``): register the source range in
  the destination VE's DMAATB, one user-DMA read — ~2.4 µs latency.
"""

import numpy as np
import pytest

from repro.backends import DmaCommBackend, VeoCommBackend
from repro.bench.harness import measure_sim, scaled_reps
from repro.bench.tables import format_size, format_time, render_table
from repro.hw.specs import KIB, MIB
from repro.machine import AuroraMachine
from repro.offload import Runtime

SIZES = [KIB, 64 * KIB, MIB, 16 * MIB]


def _copy_times(backend_cls) -> dict[int, float]:
    machine = AuroraMachine(num_ves=2, ve_memory_bytes=48 * MIB)
    runtime = Runtime(backend_cls(machine))
    src = runtime.allocate(1, SIZES[-1], np.uint8)
    dst = runtime.allocate(2, SIZES[-1], np.uint8)
    runtime.put(np.arange(SIZES[-1], dtype=np.uint8) % 251, src)
    sim = runtime.backend.sim
    out = {}
    for size in SIZES:
        stats = measure_sim(
            lambda s=size: runtime.copy(src.first(s), dst.first(s)).get(),
            sim, reps=scaled_reps(size, base=6, floor=2), warmup=1,
        )
        out[size] = stats.mean
    # Functional check: the copy really moved the bytes.
    back = np.zeros(SIZES[-1], dtype=np.uint8)
    runtime.get(dst, back)
    assert np.array_equal(back, np.arange(SIZES[-1], dtype=np.uint8) % 251)
    runtime.shutdown()
    return out


@pytest.fixture(scope="module")
def peer_copy(report):
    data = {
        "host_staged": _copy_times(VeoCommBackend),  # base copy_buffer
        "peer_dma": _copy_times(DmaCommBackend),     # direct VE->VE
    }
    rows = [
        {
            "size": format_size(size),
            "host-staged (2x privileged DMA)": format_time(data["host_staged"][size]),
            "peer user DMA": format_time(data["peer_dma"][size]),
            "speedup": f"{data['host_staged'][size] / data['peer_dma'][size]:.1f}x",
        }
        for size in SIZES
    ]
    report("peer_copy", render_table(
        rows, title="M3 — VE-to-VE copy: host-orchestrated vs peer user DMA"
    ))
    return data


class TestPeerCopy:
    def test_peer_dma_always_faster(self, peer_copy):
        for size in SIZES:
            assert peer_copy["peer_dma"][size] < peer_copy["host_staged"][size]

    def test_small_copy_speedup_dominated_by_latency(self, peer_copy):
        # Two ~100 µs privileged ops vs one ~2.4 µs user-DMA read.
        assert peer_copy["host_staged"][KIB] / peer_copy["peer_dma"][KIB] > 30

    def test_large_copy_speedup_approaches_two(self, peer_copy):
        # At 16 MiB both paths are wire-bound; staged moves the bytes
        # twice, so the ratio tends to ~2.
        ratio = peer_copy["host_staged"][16 * MIB] / peer_copy["peer_dma"][16 * MIB]
        assert 1.6 < ratio < 2.4
