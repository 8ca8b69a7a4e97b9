"""Experiment T1 — paper Table I: VH CPU and VE specifications.

Regenerates the table from the configuration database and checks every
value against the paper.
"""

import pytest

from repro.bench.tables import render_table
from repro.hw.specs import GIB, MIB, VE_TYPE_10B, VH_XEON_GOLD_6126


@pytest.fixture(scope="module")
def table1(report):
    cpu, ve = VH_XEON_GOLD_6126, VE_TYPE_10B
    rows = [
        {"": "Cores", "Intel CPU Xeon Gold 6126": cpu.cores, "NEC VE Type 10B": ve.cores},
        {"": "Threads", "Intel CPU Xeon Gold 6126": cpu.threads, "NEC VE Type 10B": ve.threads},
        {
            "": "Vector Width (double)",
            "Intel CPU Xeon Gold 6126": cpu.vector_width_double,
            "NEC VE Type 10B": ve.vector_width_double,
        },
        {
            "": "Clock Frequency",
            "Intel CPU Xeon Gold 6126": f"{cpu.clock_ghz} GHz",
            "NEC VE Type 10B": f"{ve.clock_ghz} GHz",
        },
        {
            "": "Peak Performance",
            "Intel CPU Xeon Gold 6126": f"{cpu.peak_gflops} GFLOPS",
            "NEC VE Type 10B": f"{ve.peak_gflops} GFLOPS",
        },
        {
            "": "Max. Memory",
            "Intel CPU Xeon Gold 6126": f"{cpu.max_memory_bytes // GIB} GiB (DDR4)",
            "NEC VE Type 10B": f"{ve.max_memory_bytes // GIB} GiB (HBM2)",
        },
        {
            "": "Memory Bandwidth",
            "Intel CPU Xeon Gold 6126": f"{cpu.memory_bandwidth_gb_s:.0f} GB/s",
            "NEC VE Type 10B": f"{ve.memory_bandwidth_gb_s} GB/s",
        },
        {
            "": "L3/LLC",
            "Intel CPU Xeon Gold 6126": f"{cpu.llc_bytes / MIB:.2f} MiB",
            "NEC VE Type 10B": f"{ve.llc_bytes // MIB} MiB",
        },
        {
            "": "TDP",
            "Intel CPU Xeon Gold 6126": f"{cpu.tdp_watts} W",
            "NEC VE Type 10B": f"{ve.tdp_watts} W",
        },
    ]
    text = render_table(rows, title="Table I — processor specifications")
    report("table1_specs", text)
    return rows


class TestTable1:
    def test_cpu_column(self, table1):
        cpu = VH_XEON_GOLD_6126
        assert (cpu.cores, cpu.threads) == (12, 24)
        assert cpu.vector_width_double == 8
        assert cpu.clock_ghz == 2.6
        assert cpu.peak_gflops == 998.4
        assert cpu.max_memory_bytes == 384 * GIB
        assert cpu.memory_bandwidth_gb_s == 128.0
        assert cpu.tdp_watts == 125

    def test_ve_column(self, table1):
        ve = VE_TYPE_10B
        assert (ve.cores, ve.threads) == (8, 8)
        assert ve.vector_width_double == 256
        assert ve.clock_ghz == 1.4
        assert ve.peak_gflops == 2150.4
        assert ve.max_memory_bytes == 48 * GIB
        assert ve.memory_bandwidth_gb_s == 1228.8
        assert ve.tdp_watts == 300

    def test_ve_isa_properties(self, table1):
        # Sec. I-B: 256-word vectors, 64 registers, 3 FMA units, 256 B
        # max PCIe payload.
        ve = VE_TYPE_10B
        assert ve.vector_length_words == 256
        assert ve.vector_registers == 64
        assert ve.fma_units == 3
        assert ve.pcie_max_payload == 256

    def test_table_rendering(self, table1):
        assert "Cores" in render_table(table1)
