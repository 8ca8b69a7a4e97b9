"""Tests for VectorEngine, VectorHost, specs and topology."""

from dataclasses import replace

import pytest

from repro.errors import DmaError, HardwareError
from repro.hw import (
    A300_8,
    PcieLink,
    SystemTopology,
    VE_TYPE_10B,
    VH_XEON_GOLD_6126,
    VectorEngine,
    VectorHost,
)
from repro.hw.params import DEFAULT_TIMING, WORD
from repro.hw.roofline import KernelCost, VE_DEVICE, VE_SCALAR_DEVICE, VH_DEVICE
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def ve(sim):
    link = PcieLink(sim, "pcie0")
    return VectorEngine(sim, 0, DEFAULT_TIMING, link, memory_bytes=16 * 2**20)


@pytest.fixture()
def vh(sim):
    return VectorHost(sim, DEFAULT_TIMING, memory_bytes=16 * 2**20)


class TestSpecs:
    def test_table1_values(self):
        assert VH_XEON_GOLD_6126.cores == 12
        assert VH_XEON_GOLD_6126.threads == 24
        assert VE_TYPE_10B.cores == 8
        assert VE_TYPE_10B.vector_width_double == 256
        assert VE_TYPE_10B.peak_gflops == pytest.approx(2150.4)
        assert VE_TYPE_10B.memory_bandwidth_gb_s == pytest.approx(1228.8)

    def test_system_composition(self):
        assert A300_8.num_ves == 8
        assert A300_8.num_cpu_sockets == 2
        assert A300_8.vh_memory_bytes == 192 * 2**30

    def test_socket_of_ve(self):
        assert A300_8.socket_of_ve(0) == 0
        assert A300_8.socket_of_ve(3) == 0
        assert A300_8.socket_of_ve(4) == 1
        assert A300_8.socket_of_ve(7) == 1
        with pytest.raises(ValueError):
            A300_8.socket_of_ve(8)


class TestTopology:
    def test_local_ve_no_upi(self):
        topo = SystemTopology()
        assert topo.upi_hops(0, 0) == 0
        assert topo.upi_hops(1, 4) == 0

    def test_remote_ve_one_upi_hop(self):
        topo = SystemTopology()
        assert topo.upi_hops(1, 0) == 1
        assert topo.upi_hops(0, 7) == 1

    def test_ves_of_socket(self):
        topo = SystemTopology()
        assert topo.ves_of_socket(0) == [0, 1, 2, 3]
        assert topo.ves_of_socket(1) == [4, 5, 6, 7]

    def test_describe_mentions_all_ves(self):
        text = SystemTopology().describe()
        for ve in range(8):
            assert f"ve{ve}" in text

    # The pins below hold with any path engine under ``upi_hops``.

    @staticmethod
    def _hops(topo):
        spec = topo.spec
        return [
            [topo.upi_hops(s, ve) for ve in range(spec.num_ves)]
            for s in range(spec.num_cpu_sockets)
        ]

    def test_a300_8_full_matrix_and_describe(self):
        topo = SystemTopology(A300_8)
        assert self._hops(topo) == [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 1, 1, 1, 0, 0, 0, 0],
        ]
        for ve in range(8):
            assert topo.upi_hops(topo.local_socket(ve), ve) == 0
        cpu = A300_8.cpu.name
        assert topo.describe() == (
            f"socket0 ({cpu}): ve0, ve1, ve2, ve3\n"
            f"socket1 ({cpu}): ve4, ve5, ve6, ve7"
        )

    def test_single_socket_owns_both_switches(self):
        topo = SystemTopology(replace(A300_8, num_cpu_sockets=1))
        assert self._hops(topo) == [[0] * 8]
        assert topo.ves_of_socket(0) == list(range(8))
        assert topo.describe().count("\n") == 0

    @pytest.mark.parametrize("num_ves", [4, 2])
    def test_single_switch_hangs_off_socket0(self, num_ves):
        topo = SystemTopology(replace(A300_8, num_ves=num_ves))
        assert self._hops(topo) == [[0] * num_ves, [1] * num_ves]
        assert topo.ves_of_socket(0) == list(range(num_ves))
        assert topo.ves_of_socket(1) == []
        assert topo.describe().splitlines()[1] == (
            f"socket1 ({A300_8.cpu.name}): "
        )


class TestTopologyVariants:
    def test_single_socket_spec(self):
        from dataclasses import replace

        from repro.hw.specs import A300_8
        from repro.hw.topology import SystemTopology

        small = replace(A300_8, num_cpu_sockets=1, num_ves=2, ves_per_switch=2)
        topo = SystemTopology(small)
        assert topo.upi_hops(0, 0) == 0
        assert topo.upi_hops(0, 1) == 0
        assert topo.ves_of_socket(0) == [0, 1]


class TestVectorEngineLhmShm:
    def _register_host(self, vh, ve, size=4096):
        seg = vh.shmget(size)
        return seg, ve.dmaatb.register(seg, 0, size)

    def test_lhm_reads_host_memory(self, sim, ve, vh):
        seg, entry = self._register_host(vh, ve)
        seg.write(64, b"hello-world-....")

        def proc():
            data = yield from ve.lhm_read(entry.vehva + 64, 16)
            return data

        assert sim.run(until=sim.process(proc())) == b"hello-world-...."
        assert ve.lhm_ops == 2  # 16 bytes = 2 words

    def test_lhm_u64_flag_read(self, sim, ve, vh):
        seg, entry = self._register_host(vh, ve)
        seg.write_u64(0, 12345)

        def proc():
            value = yield from ve.lhm_read_u64(entry.vehva)
            return value

        assert sim.run(until=sim.process(proc())) == 12345
        assert sim.now == pytest.approx(DEFAULT_TIMING.lhm_time(WORD))

    def test_shm_store_visible_after_delay(self, sim, ve, vh):
        seg, entry = self._register_host(vh, ve)

        def proc():
            yield from ve.shm_write(entry.vehva, b"\xaa" * 16)

        issue_done = sim.process(proc())
        sim.run(until=issue_done)
        # Posted stores: issued but not yet visible.
        assert seg.read(0, 16) == bytes(16)
        sim.run()
        assert seg.read(0, 16) == b"\xaa" * 16

    def test_shm_u64(self, sim, ve, vh):
        seg, entry = self._register_host(vh, ve)

        def proc():
            yield from ve.shm_write_u64(entry.vehva + 8, 0xFEED)

        sim.run(until=sim.process(proc()))
        sim.run()
        assert seg.read_u64(8) == 0xFEED

    def test_shm_zero_bytes_rejected(self, sim, ve, vh):
        _seg, entry = self._register_host(vh, ve)

        def proc():
            yield from ve.shm_write(entry.vehva, b"")

        with pytest.raises(DmaError):
            sim.run(until=sim.process(proc()))


class TestVectorHostShm:
    def test_segment_lifecycle(self, vh):
        seg = vh.shmget(8192)
        assert vh.segment_by_key(seg.key) is seg
        assert vh.live_segments == 1
        vh.shmrm(seg)
        assert vh.live_segments == 0
        with pytest.raises(HardwareError):
            vh.segment_by_key(seg.key)

    def test_unique_keys(self, vh):
        a = vh.shmget(4096)
        b = vh.shmget(4096)
        assert a.key != b.key

    def test_huge_page_flag(self, vh):
        huge = vh.shmget(4 * 2**20, huge_pages=True)
        small = vh.shmget(4 * 2**20, huge_pages=False)
        assert huge.default_page_size == 2 * 2**20
        assert small.default_page_size == 4096

    def test_bad_size(self, vh):
        with pytest.raises(HardwareError):
            vh.shmget(0)

    def test_double_remove(self, vh):
        seg = vh.shmget(4096)
        vh.shmrm(seg)
        with pytest.raises(HardwareError):
            vh.shmrm(seg)


class TestRoofline:
    def test_vectorised_ve_beats_vh_on_streaming(self):
        # A memory-bound kernel: the VE's HBM2 should win by ~10x.
        cost = KernelCost(flops=1e6, bytes_moved=1e8)
        assert VE_DEVICE.kernel_time(cost) < VH_DEVICE.kernel_time(cost) / 5

    def test_scalar_ve_slower_than_vh(self):
        # The paper's motivation: scalar code runs slowly on the VE.
        cost = KernelCost(flops=1e8, bytes_moved=1e6)
        assert VE_SCALAR_DEVICE.kernel_time(cost) > VH_DEVICE.kernel_time(cost)

    def test_startup_dominates_tiny_kernels(self):
        tiny = KernelCost(flops=10, bytes_moved=10)
        assert VE_DEVICE.kernel_time(tiny) == pytest.approx(VE_DEVICE.startup, rel=0.01)

    def test_scaled(self):
        cost = KernelCost(flops=100, bytes_moved=200)
        double = cost.scaled(2)
        assert double.flops == 200 and double.bytes_moved == 400

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            VE_DEVICE.kernel_time(KernelCost(flops=-1, bytes_moved=0))

    def test_arithmetic_balance_positive(self):
        assert VE_DEVICE.arithmetic_balance() > 0
