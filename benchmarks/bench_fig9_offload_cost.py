"""Experiment F9 — paper Fig. 9: cost of offloading an empty kernel.

Three bars, all measured by *executing the protocols* on the simulated
platform (no hard-coded totals):

* ``VEO`` — a native ``veo_call_async`` + ``wait_result`` of an empty VE
  function (paper: ~80 µs);
* ``HAM-Offload (VEO)`` — the Sec. III-D protocol (paper: ~432 µs,
  5.4× native VEO);
* ``HAM-Offload (DMA)`` — the Sec. IV-B protocol (paper: ~6.1 µs, 13.1×
  faster than native VEO, 70.8× faster than HAM-over-VEO).

Also reproduces the Sec. V-A decomposition (S2): the DMA offload is
≈ 1.2 µs of PCIe round trip plus ~5 µs framework overhead, and the
second-socket experiment (S1) lives in ``bench_numa_socket.py``.
"""

import pytest

from repro.backends import DmaCommBackend, VeoCommBackend
from repro.bench.breakdown import offload_breakdown
from repro.bench.calibration import PAPER
from repro.bench.tables import format_time, render_table
from repro.ham import f2f, offloadable
from repro.offload import Runtime

REPS = 60


@offloadable
def fig9_empty_kernel() -> None:
    """The empty kernel: measures pure offloading overhead."""
    return None


from repro.bench.experiments import (
    measure_native_veo_call,
    measure_protocol_offload_cost,
)


def measure_breakdown(backend_cls) -> dict:
    runtime = Runtime(backend_cls())
    phases = offload_breakdown(runtime, f2f(fig9_empty_kernel))
    runtime.shutdown()
    return phases


@pytest.fixture(scope="module")
def fig9(report):
    data = {
        "veo_native": measure_native_veo_call(REPS),
        "ham_veo": measure_protocol_offload_cost(VeoCommBackend, REPS),
        "ham_dma": measure_protocol_offload_cost(DmaCommBackend, REPS),
        "dma_phases": measure_breakdown(DmaCommBackend),
        "veo_phases": measure_breakdown(VeoCommBackend),
    }
    rows = [
        {
            "method": "VEO (native)",
            "measured": format_time(data["veo_native"]),
            "paper": format_time(PAPER.fig9_veo_native),
            "deviation": f"{data['veo_native'] / PAPER.fig9_veo_native - 1:+.1%}",
        },
        {
            "method": "HAM-Offload (VEO)",
            "measured": format_time(data["ham_veo"]),
            "paper": format_time(PAPER.fig9_ham_veo),
            "deviation": f"{data['ham_veo'] / PAPER.fig9_ham_veo - 1:+.1%}",
        },
        {
            "method": "HAM-Offload (DMA)",
            "measured": format_time(data["ham_dma"]),
            "paper": format_time(PAPER.fig9_ham_dma),
            "deviation": f"{data['ham_dma'] / PAPER.fig9_ham_dma - 1:+.1%}",
        },
    ]
    ratios = [
        {
            "ratio": "HAM-VEO / VEO",
            "measured": f"{data['ham_veo'] / data['veo_native']:.1f}x",
            "paper": f"{PAPER.fig9_ratio_ham_veo_over_native}x",
        },
        {
            "ratio": "VEO / HAM-DMA",
            "measured": f"{data['veo_native'] / data['ham_dma']:.1f}x",
            "paper": f"{PAPER.fig9_ratio_native_over_ham_dma}x",
        },
        {
            "ratio": "HAM-VEO / HAM-DMA",
            "measured": f"{data['ham_veo'] / data['ham_dma']:.1f}x",
            "paper": f"{PAPER.fig9_ratio_ham_veo_over_ham_dma}x",
        },
    ]
    def phase_rows(phases: dict) -> list[dict]:
        total = phases["total"]
        return [
            {"phase": label, "duration": format_time(duration)}
            for label, duration in sorted(phases.items())
            if label != "total"
        ] + [{"phase": "TOTAL (phases overlap host/VE)", "duration": format_time(total)}]

    breakdown = [
        {
            "component": "PCIe round trip (one LHM flag poll)",
            "measured": format_time(PAPER.pcie_round_trip),
            "paper": format_time(PAPER.pcie_round_trip),
        },
        {
            "component": "framework + DMA fetch + result path",
            "measured": format_time(data["ham_dma"] - PAPER.pcie_round_trip),
            "paper": f"~{format_time(PAPER.framework_overhead)}",
        },
    ]
    text = (
        render_table(rows, title="Fig. 9 — empty-kernel offload cost (VH to local VE)")
        + "\n\n"
        + render_table(ratios, title="Fig. 9 — speedup ratios")
        + "\n\n"
        + render_table(breakdown, title="Sec. V-A — HAM-DMA cost decomposition")
        + "\n\n"
        + render_table(
            phase_rows(data["dma_phases"]),
            title="HAM-DMA: traced protocol phases (one offload)",
        )
        + "\n\n"
        + render_table(
            phase_rows(data["veo_phases"]),
            title="HAM-VEO: traced protocol phases (one offload)",
        )
    )
    report("fig9_offload_cost", text)
    return data


class TestFig9:
    def test_veo_native_anchor(self, fig9):
        assert fig9["veo_native"] == pytest.approx(PAPER.fig9_veo_native, rel=0.10)

    def test_ham_veo_anchor(self, fig9):
        assert fig9["ham_veo"] == pytest.approx(PAPER.fig9_ham_veo, rel=0.10)

    def test_ham_dma_anchor(self, fig9):
        assert fig9["ham_dma"] == pytest.approx(PAPER.fig9_ham_dma, rel=0.10)

    def test_ratio_ham_veo_over_native(self, fig9):
        ratio = fig9["ham_veo"] / fig9["veo_native"]
        assert ratio == pytest.approx(PAPER.fig9_ratio_ham_veo_over_native, rel=0.15)

    def test_ratio_native_over_ham_dma(self, fig9):
        ratio = fig9["veo_native"] / fig9["ham_dma"]
        assert ratio == pytest.approx(PAPER.fig9_ratio_native_over_ham_dma, rel=0.15)

    def test_ratio_ham_veo_over_ham_dma(self, fig9):
        ratio = fig9["ham_veo"] / fig9["ham_dma"]
        assert ratio == pytest.approx(PAPER.fig9_ratio_ham_veo_over_ham_dma, rel=0.15)

    def test_dma_framework_share(self, fig9):
        # 6.1 µs ≈ 1.2 µs PCIe + ~5 µs framework.
        framework = fig9["ham_dma"] - PAPER.pcie_round_trip
        assert framework == pytest.approx(PAPER.framework_overhead, rel=0.15)

    def test_dma_traced_phases_cover_the_offload(self, fig9):
        phases = dict(fig9["dma_phases"])
        total = phases.pop("total")
        # The LHM flag poll is the PCIe round trip of the decomposition.
        assert phases["dma.ve.lhm_poll"] >= PAPER.pcie_round_trip
        # Span sum ≥ total (host/VE phases overlap), within 2× slack.
        assert total <= sum(phases.values()) <= 2 * total

    def test_veo_phases_dominated_by_privileged_dma_ops(self, fig9):
        phases = fig9["veo_phases"]
        privileged = (
            phases["veo.host.post"]
            + phases["veo.host.poll_flag"]
            + phases["veo.host.read_result"]
        )
        assert privileged / phases["total"] > 0.95
