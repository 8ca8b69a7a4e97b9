"""Experiment M1 (extension) — offload throughput scaling across VEs.

The benchmark system has eight VEs (Fig. 3); the paper offloads to one.
This extension measures how aggregate offload throughput scales when the
single host process drives 1–8 VEs concurrently with the DMA protocol:
VE-side kernels overlap perfectly (independent engines), while the host's
serialization/posting work and result polling become the shared resource —
the classic single-driver scaling curve.
"""

import pytest

from repro.bench.experiments import measure_multi_ve_scaling
from repro.bench.tables import render_table

KERNEL_TIME = 50e-6
ROUNDS = 12
VE_COUNTS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def scaling(report):
    data = measure_multi_ve_scaling(VE_COUNTS, kernel_time=KERNEL_TIME, rounds=ROUNDS)
    base = data[1]
    rows = [
        {
            "VEs": n,
            "offloads/s (simulated)": f"{data[n]:,.0f}",
            "speedup": f"{data[n] / base:.2f}x",
            "efficiency": f"{data[n] / base / n:.0%}",
        }
        for n in VE_COUNTS
    ]
    text = render_table(
        rows,
        title=(
            f"M1 — DMA-protocol offload throughput vs number of VEs "
            f"({KERNEL_TIME * 1e6:.0f} us kernels)"
        ),
    )
    report("multi_ve_scaling", text)
    return data


class TestMultiVeScaling:
    def test_throughput_increases_with_ves(self, scaling):
        values = [scaling[n] for n in VE_COUNTS]
        assert values == sorted(values)

    def test_two_ves_nearly_double(self, scaling):
        assert scaling[2] / scaling[1] > 1.7

    def test_eight_ves_beat_four(self, scaling):
        assert scaling[8] > scaling[4]

    def test_efficiency_degrades_gracefully(self, scaling):
        # Single host driver: efficiency at 8 VEs below 100 % but the
        # setup must still deliver clearly more than 4 VEs' throughput.
        assert 0.4 < scaling[8] / scaling[1] / 8 <= 1.0
