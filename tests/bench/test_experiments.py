"""Tests for the shared (simulated-only) experiments module."""

import pytest

from repro.bench import experiments as exp
from repro.bench.calibration import PAPER
from repro.hw.specs import MIB


class TestExperimentsModule:
    def test_fig9_matches_anchors(self):
        data = exp.measure_fig9(reps=10)
        assert data["veo_native"] == pytest.approx(PAPER.fig9_veo_native, rel=0.10)
        assert data["ham_veo"] == pytest.approx(PAPER.fig9_ham_veo, rel=0.10)
        assert data["ham_dma"] == pytest.approx(PAPER.fig9_ham_dma, rel=0.10)

    def test_fig10_small_sweep_shapes(self):
        sizes = exp.fig10_sizes(4 * MIB)
        data = exp.measure_fig10(sizes, rep_base=2)
        assert set(data["vh_to_ve"]) == {"VEO Write", "VE User DMA", "VE LHM"}
        assert set(data["ve_to_vh"]) == {"VEO Read", "VE User DMA", "VE SHM"}
        for direction in ("vh_to_ve", "ve_to_vh"):
            for curve in data[direction].values():
                assert len(curve) == len(sizes)

    def test_numa_keys(self):
        data = exp.measure_numa_penalty(reps=3)
        assert set(data) == {
            "dma_socket0", "dma_socket1", "veo_socket0", "veo_socket1",
        }
        assert data["dma_socket1"] > data["dma_socket0"]

    def test_multi_ve_scaling_monotone(self):
        data = exp.measure_multi_ve_scaling([1, 2], rounds=3)
        assert data[2] > data[1]
