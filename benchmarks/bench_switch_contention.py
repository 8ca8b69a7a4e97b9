"""Experiment M2 (extension) — PCIe switch uplink contention.

The A300-8 block diagram (paper Fig. 3) hangs four VEs off each of two
PCIe switches; each switch feeds one socket through a single x16 uplink.
A single VE's bulk transfer saturates that uplink, so driving several
*same-switch* VEs concurrently cannot scale bulk bandwidth — while
spreading the same transfers *across both switches* doubles it. This
experiment measures aggregate user-DMA bandwidth for three placements.
"""

import pytest

from repro.bench.experiments import measure_switch_contention
from repro.bench.tables import format_bandwidth, render_table
from repro.hw.specs import GIB, MIB

TRANSFER = 16 * MIB


@pytest.fixture(scope="module")
def contention(report):
    data = measure_switch_contention(TRANSFER)
    rows = [
        {"placement": "1 VE (baseline)", "aggregate": format_bandwidth(data["one_ve"])},
        {
            "placement": "4 VEs, same switch",
            "aggregate": format_bandwidth(data["four_same_switch"]),
        },
        {
            "placement": "4 VEs, 2 per switch",
            "aggregate": format_bandwidth(data["four_across_switches"]),
        },
        {
            "placement": "8 VEs, both switches",
            "aggregate": format_bandwidth(data["eight"]),
        },
    ]
    report("switch_contention", render_table(
        rows,
        title=(
            "M2 — aggregate VE->VH user-DMA bandwidth by VE placement "
            "(16 MiB transfers)"
        ),
    ))
    return data


class TestSwitchContention:
    def test_same_switch_does_not_scale(self, contention):
        # Four VEs behind one uplink ≈ one VE's bandwidth.
        assert contention["four_same_switch"] == pytest.approx(
            contention["one_ve"], rel=0.10
        )

    def test_across_switches_doubles(self, contention):
        ratio = contention["four_across_switches"] / contention["four_same_switch"]
        assert 1.7 < ratio < 2.2

    def test_eight_ves_cap_at_two_uplinks(self, contention):
        assert contention["eight"] == pytest.approx(
            2 * contention["one_ve"], rel=0.15
        )

    def test_baseline_matches_single_ve_peak(self, contention):
        assert contention["one_ve"] == pytest.approx(11.1 * GIB, rel=0.07)
