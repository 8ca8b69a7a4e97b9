"""Experiment M4 (extension) — remote offloading over InfiniBand.

The paper's outlook (Sec. VI) anticipates remote offloading via
heterogeneous MPI. This experiment measures the cost of an empty offload
to a *remote node's* VE (active message over IB → remote host agent →
local DMA protocol → result back over IB) against the local protocols —
the quantitative version of "HAM-Offload applications will also benefit
from remote offloading capabilities".
"""

import pytest

from repro.backends import ClusterBackend
from repro.bench.calibration import PAPER
from repro.bench.harness import measure_sim
from repro.bench.tables import format_time, render_table
from repro.cluster import AuroraCluster
from repro.ham import f2f, offloadable
from repro.offload import Runtime

REPS = 40


@offloadable
def remote_empty_kernel() -> None:
    """Empty kernel for the remote-offload experiment."""
    return None


@pytest.fixture(scope="module")
def remote(report):
    cluster = AuroraCluster(num_nodes=2, ves_per_node=1)
    runtime = Runtime(ClusterBackend(cluster))
    sim = cluster.sim

    def cost(node):
        return measure_sim(
            lambda: runtime.sync(node, f2f(remote_empty_kernel)), sim, reps=REPS
        ).mean

    data = {
        "local": cost(1),
        "remote": cost(2),
        "ib_latency": cluster.timing.ib_latency,
    }
    runtime.shutdown()
    rows = [
        {
            "target": "local VE (DMA protocol)",
            "offload cost": format_time(data["local"]),
            "vs paper's local VEO protocol": f"{432e-6 / data['local']:.0f}x faster",
        },
        {
            "target": "remote VE (DMA over IB)",
            "offload cost": format_time(data["remote"]),
            "vs paper's local VEO protocol": f"{432e-6 / data['remote']:.0f}x faster",
        },
        {
            "target": "IB round trip share",
            "offload cost": format_time(2 * data["ib_latency"]),
            "vs paper's local VEO protocol": "",
        },
    ]
    report("remote_offload", render_table(
        rows, title="M4 — remote offloading across the IB fabric"
    ))
    return data


class TestRemoteOffload:
    def test_remote_more_expensive_than_local(self, remote):
        assert remote["remote"] > remote["local"]

    def test_extra_cost_is_roughly_the_ib_round_trip(self, remote):
        extra = remote["remote"] - remote["local"]
        assert extra == pytest.approx(2 * remote["ib_latency"], rel=0.45)

    def test_remote_dma_still_beats_local_veo_protocol(self, remote):
        # The headline of the extension: remote offloading through the
        # fast protocol is ~45x cheaper than the *local* VEO protocol.
        assert remote["remote"] < PAPER.fig9_ham_veo / 20
