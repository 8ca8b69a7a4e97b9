"""Experiment S1 — paper Sec. V-A: offloading from the second CPU socket.

"Performing the offload from the second CPU, which has to communicate
with the VE through its UPI connection with the first CPU socket, adds up
to 1 µs to the DMA measurement."

Measured by running the full DMA protocol with the VH process pinned to
socket 0 (local) and socket 1 (remote, one UPI hop to VE 0).
"""

import pytest

from repro.bench.calibration import PAPER
from repro.bench.experiments import measure_numa_penalty
from repro.bench.tables import format_time, render_table

REPS = 40


@pytest.fixture(scope="module")
def numa(report):
    raw = measure_numa_penalty(reps=REPS)
    data = {
        "dma_local": raw["dma_socket0"],
        "dma_remote": raw["dma_socket1"],
        "veo_local": raw["veo_socket0"],
        "veo_remote": raw["veo_socket1"],
    }
    rows = [
        {
            "protocol": "HAM-Offload (DMA)",
            "socket 0 (local)": format_time(data["dma_local"]),
            "socket 1 (UPI hop)": format_time(data["dma_remote"]),
            "added": format_time(data["dma_remote"] - data["dma_local"]),
            "paper": "up to 1 us",
        },
        {
            "protocol": "HAM-Offload (VEO)",
            "socket 0 (local)": format_time(data["veo_local"]),
            "socket 1 (UPI hop)": format_time(data["veo_remote"]),
            "added": format_time(data["veo_remote"] - data["veo_local"]),
            "paper": "(not reported)",
        },
    ]
    report("numa_socket", render_table(
        rows, title="Sec. V-A — offload cost from the second CPU socket"
    ))
    return data


class TestNuma:
    def test_remote_socket_slower(self, numa):
        assert numa["dma_remote"] > numa["dma_local"]
        assert numa["veo_remote"] > numa["veo_local"]

    def test_dma_penalty_up_to_one_microsecond(self, numa):
        extra = numa["dma_remote"] - numa["dma_local"]
        assert 0 < extra <= PAPER.second_socket_extra_max

    def test_penalty_is_small_relative_to_veo_protocol(self, numa):
        # On the 432 µs VEO protocol the UPI penalty is negligible noise.
        extra = numa["veo_remote"] - numa["veo_local"]
        assert extra / numa["veo_local"] < 0.01
