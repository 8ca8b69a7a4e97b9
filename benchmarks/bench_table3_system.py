"""Experiment T3 — paper Table III: benchmark system configuration."""

import pytest

from repro.bench.tables import render_table
from repro.hw.specs import A300_8, GIB
from repro.hw.topology import SystemTopology


@pytest.fixture(scope="module")
def table3(report):
    spec = A300_8
    rows = [
        {"Item": "System", "Value": spec.name},
        {"Item": "VH CPUs", "Value": f"{spec.num_cpu_sockets}x {spec.cpu.name}"},
        {"Item": "VH Memory", "Value": f"{spec.vh_memory_bytes // GIB} GiB DDR4"},
        {
            "Item": "VE Cards",
            "Value": f"{spec.num_ves}x {spec.ve.name}, "
            f"{spec.ve.max_memory_bytes // GIB} GiB HBM2",
        },
        {
            "Item": "PCIe Config.",
            "Value": f"Gen{spec.pcie_gen} x{spec.pcie_lanes}, "
            f"{spec.num_ves // spec.ves_per_switch} switches x "
            f"{spec.ves_per_switch} VEs",
        },
        {"Item": "VH OS", "Value": spec.vh_os},
        {"Item": "VH compiler", "Value": spec.vh_compiler},
        {"Item": "VEOS", "Value": spec.veos_version},
        {"Item": "VEO", "Value": spec.veo_version},
        {"Item": "VE compiler", "Value": spec.ve_compiler},
    ]
    text = render_table(rows, title="Table III — benchmark system configuration")
    text += "\n\nTopology (Fig. 3):\n" + SystemTopology(spec).describe()
    report("table3_system", text)
    return rows


class TestTable3:
    def test_system_values(self, table3):
        spec = A300_8
        assert spec.num_cpu_sockets == 2
        assert spec.num_ves == 8
        assert spec.vh_memory_bytes == 192 * GIB
        assert spec.veos_version == "1.3.2-4dma"
        assert spec.veo_version == "1.3.2a"
        assert spec.ve_compiler == "NEC NCC 1.6.0"

    def test_topology_matches_fig3(self, table3):
        topo = SystemTopology(A300_8)
        # Two switches, four VEs each, one per socket.
        assert topo.ves_of_socket(0) == [0, 1, 2, 3]
        assert topo.ves_of_socket(1) == [4, 5, 6, 7]
        # Cross-socket access crosses UPI exactly once.
        assert topo.upi_hops(0, 4) == 1
        assert topo.upi_hops(1, 3) == 1

    def test_topology_query(self, table3):
        topo = SystemTopology(A300_8)
        hops = [topo.upi_hops(s, v) for s in (0, 1) for v in range(8)]
        assert sum(hops) == 8  # half the (socket, ve) pairs are remote
