"""Experiment F10 — paper Fig. 10: VH↔VE bandwidth by transfer method.

Four panels: {VH→VE, VE→VH} × {small sizes ≤ 1 KiB, large sizes ≤ 256
MiB}, three methods each:

* **VEO Read/Write** — privileged DMA through VEOS (the Sec. III-D
  transport);
* **VE user DMA** — DMAATB-registered transfers issued by the VE;
* **VE SHM/LHM** — word-wise load/store host memory instructions
  (measured only up to 4 MiB, as in the paper, "due to prohibitive
  runtimes").

Every point is measured by executing transfers on the simulated hardware
(real bytes move through the simulated memories). Shape anchors asserted:
user DMA near peak at 1 MiB vs 64 MiB for VEO; LHM wins only for 1–2
words; SHM wins up to 256 B; VE→VH faster; large-size gap ≈ 7 %.
"""

import math

import pytest

from repro.bench.calibration import PAPER
from repro.bench.figures import ascii_chart, render_series
from repro.hw.specs import GIB, KIB, MIB

from repro.bench.experiments import (
    FIG10_MAX_SIZE as MAX_SIZE,
    fig10_sizes,
    measure_fig10,
)

SIZES = fig10_sizes()


@pytest.fixture(scope="module")
def fig10(report):
    data = measure_fig10(SIZES)
    sections = []
    for direction, label in (("vh_to_ve", "VH => VE"), ("ve_to_vh", "VE => VH")):
        series_gib = {
            name: [v / GIB for v in values]
            for name, values in data[direction].items()
        }
        small = [s for s in SIZES if s <= KIB]
        small_series = {n: v[: len(small)] for n, v in series_gib.items()}
        sections.append(render_series(
            small, small_series,
            title=f"Fig. 10 ({label}), small sizes [GiB/s]",
        ))
        sections.append(render_series(
            SIZES, series_gib,
            title=f"Fig. 10 ({label}), full range [GiB/s]",
        ))
        sections.append(ascii_chart(
            SIZES, series_gib, title=f"Fig. 10 ({label}) — log-log bandwidth",
        ))
    report("fig10_bandwidth", "\n\n".join(sections))
    return data


def _at(data, direction, name, size):
    return data[direction][name][SIZES.index(size)]


class TestFig10Shapes:
    def test_udma_always_beats_veo(self, fig10):
        for direction, veo_name in (("vh_to_ve", "VEO Write"), ("ve_to_vh", "VEO Read")):
            veo = fig10[direction][veo_name]
            udma = fig10[direction]["VE User DMA"]
            assert all(u > v for u, v in zip(udma, veo))

    def test_udma_near_peak_at_1mib(self, fig10):
        for direction in ("vh_to_ve", "ve_to_vh"):
            curve = fig10[direction]["VE User DMA"]
            peak = max(curve)
            assert _at(fig10, direction, "VE User DMA", MIB) >= PAPER.near_peak_fraction * peak

    def test_veo_near_peak_at_64mib_not_before(self, fig10):
        for direction, name in (("vh_to_ve", "VEO Write"), ("ve_to_vh", "VEO Read")):
            curve = fig10[direction][name]
            peak = max(curve)
            assert _at(fig10, direction, name, 64 * MIB) >= PAPER.near_peak_fraction * peak
            assert _at(fig10, direction, name, MIB) < PAPER.near_peak_fraction * peak

    def test_small_size_udma_vs_veo_ratio(self, fig10):
        lo, hi = PAPER.small_ratio_band
        for direction, name in (("vh_to_ve", "VEO Write"), ("ve_to_vh", "VEO Read")):
            ratio = (
                fig10[direction]["VE User DMA"][0] / fig10[direction][name][0]
            )
            assert lo <= ratio <= hi

    def test_large_size_udma_vs_veo_gap(self, fig10):
        for direction, name in (("vh_to_ve", "VEO Write"), ("ve_to_vh", "VEO Read")):
            ratio = _at(fig10, direction, "VE User DMA", MAX_SIZE) / _at(
                fig10, direction, name, MAX_SIZE
            )
            assert ratio == pytest.approx(PAPER.large_ratio, abs=0.03)

    def test_lhm_beats_udma_only_for_one_or_two_words(self, fig10):
        lhm = fig10["vh_to_ve"]["VE LHM"]
        udma = fig10["vh_to_ve"]["VE User DMA"]
        assert lhm[SIZES.index(8)] > udma[SIZES.index(8)]
        assert lhm[SIZES.index(16)] > udma[SIZES.index(16)]
        assert lhm[SIZES.index(32)] < udma[SIZES.index(32)]

    def test_shm_beats_udma_up_to_256b(self, fig10):
        shm = fig10["ve_to_vh"]["VE SHM"]
        udma = fig10["ve_to_vh"]["VE User DMA"]
        for size in (8, 64, 256):
            assert shm[SIZES.index(size)] > udma[SIZES.index(size)], size
        assert shm[SIZES.index(512)] < udma[SIZES.index(512)]

    def test_ve_to_vh_faster_for_bulk_methods(self, fig10):
        for name_down, name_up in (("VEO Write", "VEO Read"), ("VE User DMA", "VE User DMA")):
            down = fig10["vh_to_ve"][name_down]
            up = fig10["ve_to_vh"][name_up]
            faster = sum(u > d for u, d in zip(up, down))
            assert faster >= len(SIZES) - 1

    def test_shm_lhm_capped_at_4mib(self, fig10):
        lhm = fig10["vh_to_ve"]["VE LHM"]
        assert math.isnan(lhm[SIZES.index(8 * MIB)])
        assert not math.isnan(lhm[SIZES.index(4 * MIB)])

    def test_nothing_exceeds_pcie_achievable(self, fig10):
        ceiling = PAPER.pcie_theoretical_peak * PAPER.pcie_achievable_fraction
        for direction in ("vh_to_ve", "ve_to_vh"):
            for curve in fig10[direction].values():
                assert all(not (v == v) or v <= ceiling * 1.001 for v in curve)
