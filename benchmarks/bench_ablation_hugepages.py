"""Experiment A2 — ablation: huge pages vs 4 KiB pages on the VH buffer.

Paper Sec. V-B: "To achieve these numbers, it is important to use huge
pages of at least 2 MiB." The privileged DMA manager pays a
per-page translation cost; 4 KiB pages mean 512× more translations per
2 MiB of data.
"""

import pytest

from repro.bench.experiments import measure_hugepages_ablation
from repro.bench.tables import format_bandwidth, format_size, render_table
from repro.hw.specs import MIB

SIZES = [256 * 1024, 4 * MIB, 32 * MIB]


@pytest.fixture(scope="module")
def hugepages(report):
    data = measure_hugepages_ablation(SIZES)
    rows = [
        {
            "size": format_size(size),
            "2 MiB huge pages": format_bandwidth(data["huge"][size]),
            "4 KiB pages": format_bandwidth(data["small"][size]),
            "huge-page gain": f"{data['huge'][size] / data['small'][size]:.1f}x",
        }
        for size in SIZES
    ]
    report("ablation_hugepages", render_table(
        rows, title="A2 — VEO write bandwidth: huge pages vs 4 KiB pages"
    ))
    return data


class TestHugePages:
    def test_huge_pages_always_faster(self, hugepages):
        for size in SIZES:
            assert hugepages["huge"][size] > hugepages["small"][size]

    def test_small_pages_cripple_large_transfers(self, hugepages):
        # At 32 MiB, 4 KiB pages cost 8192 translations; the paper's
        # "important to use huge pages" should be a multi-x effect.
        gain = hugepages["huge"][32 * MIB] / hugepages["small"][32 * MIB]
        assert gain > 3

    def test_gain_grows_with_size(self, hugepages):
        gains = [hugepages["huge"][s] / hugepages["small"][s] for s in SIZES]
        assert gains == sorted(gains)
