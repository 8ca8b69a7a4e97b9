"""Tests for the VEO API layer (proc, context, requests)."""

import pytest

from repro.errors import VeoCommandError, VeoProcError
from repro.machine import AuroraMachine
from repro.sim import Simulator
from repro.veo import RequestState, VeoProc, VeoRequest
from repro.veos.loader import VeLibrary


@pytest.fixture()
def machine():
    return AuroraMachine(num_ves=1)


@pytest.fixture()
def proc(machine):
    return VeoProc(machine, 0)


@pytest.fixture()
def lib():
    library = VeLibrary("libapp")
    library.add_function("empty", lambda: None)
    library.add_function("double", lambda x: 2 * x, duration=1e-6)
    library.add_function("fail", lambda: (_ for _ in ()).throw(ValueError("ve boom")))
    return library


class TestProcLifecycle:
    def test_create_charges_time(self, machine):
        VeoProc(machine, 0)
        assert machine.sim.now >= machine.timing.veos_proc_create_time

    def test_destroy_then_use_rejected(self, machine, proc):
        proc.destroy()
        with pytest.raises(VeoProcError):
            proc.alloc_mem(64)

    def test_memory_alloc_free(self, proc):
        addr = proc.alloc_mem(4096)
        proc.free_mem(addr)
        with pytest.raises(VeoProcError):
            proc.free_mem(addr)


class TestMemoryTransfers:
    def test_write_read_roundtrip(self, proc):
        addr = proc.alloc_mem(1024)
        payload = bytes(range(256)) * 4
        proc.write_mem(addr, payload)
        assert proc.read_mem(addr, len(payload)) == payload

    def test_write_charges_veo_latency(self, machine, proc):
        addr = proc.alloc_mem(64)
        before = machine.sim.now
        proc.write_mem(addr, b"x" * 64)
        elapsed = machine.sim.now - before
        assert elapsed >= machine.timing.veo_write_base_latency

    def test_write_slower_than_read_small(self, machine, proc):
        addr = proc.alloc_mem(64)
        t0 = machine.sim.now
        proc.write_mem(addr, b"x" * 8)
        t_write = machine.sim.now - t0
        t0 = machine.sim.now
        proc.read_mem(addr, 8)
        t_read = machine.sim.now - t0
        assert t_write > t_read

    def test_small_pages_slower_for_large_transfers(self, machine, proc):
        size = 8 * 2**20
        machine_b = AuroraMachine(num_ves=1)
        proc_b = VeoProc(machine_b, 0)
        addr = proc.alloc_mem(size)
        addr_b = proc_b.alloc_mem(size)

        t0 = machine.sim.now
        proc.write_mem(addr, bytes(size), huge_pages=True)
        t_huge = machine.sim.now - t0

        t0 = machine_b.sim.now
        proc_b.write_mem(addr_b, bytes(size), huge_pages=False)
        t_small = machine_b.sim.now - t0
        assert t_small > t_huge

    def test_staging_is_freed(self, machine, proc):
        addr = proc.alloc_mem(64)
        live_before = machine.vh.ddr.live_allocations
        proc.write_mem(addr, b"y" * 64)
        proc.read_mem(addr, 64)
        assert machine.vh.ddr.live_allocations == live_before

    def test_transfer_region(self, machine, proc):
        region = machine.vh.ddr
        staging = region.allocate(128)
        region.write(staging.addr, b"z" * 128)
        ve_addr = proc.alloc_mem(128)
        proc.transfer_region(region, staging.addr, ve_addr, 128, direction="vh_to_ve")
        assert proc.read_mem(ve_addr, 128) == b"z" * 128
        with pytest.raises(ValueError):
            proc.transfer_region(region, 0, ve_addr, 8, direction="bad")


class TestCalls:
    def test_sync_call_roundtrip(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        assert ctx.call_sync(handle.get_symbol("double"), 21) == 42

    def test_empty_call_cost_is_fig9_veo_anchor(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        sym = handle.get_symbol("empty")
        ctx.call_sync(sym)  # warm-up
        before = machine.sim.now
        ctx.call_sync(sym)
        elapsed = machine.sim.now - before
        assert elapsed == pytest.approx(machine.timing.veo_call_time(), rel=0.05)

    def test_async_requests_fifo(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        sym = handle.get_symbol("double")
        requests = [ctx.call_async(sym, i) for i in range(5)]
        assert all(r.state is RequestState.PENDING for r in requests)
        results = [r.wait_result() for r in requests]
        assert results == [0, 2, 4, 6, 8]

    def test_peek_result(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        request = ctx.call_async(handle.get_symbol("empty"))
        state, _ = request.peek_result()
        assert state is RequestState.PENDING
        request.wait_result()
        state, _ = request.peek_result()
        assert state is RequestState.DONE

    def test_ve_side_exception_propagates(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        with pytest.raises(VeoCommandError) as excinfo:
            ctx.call_sync(handle.get_symbol("fail"))
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_closed_context_rejects_calls(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        ctx.close()
        with pytest.raises(VeoProcError):
            ctx.call_async(handle.get_symbol("empty"))

    def test_server_start(self, machine, proc):
        lib = VeLibrary("libham")
        ticks = []

        def ham_main():
            while True:
                yield machine.sim.timeout(1e-3)
                ticks.append(machine.sim.now)

        lib.add_server("ham_main", ham_main)
        handle = proc.load_library(lib)
        server = proc.start_server(handle.get_symbol("ham_main"))
        machine.sim.run(until=machine.sim.now + 5e-3)
        assert server.is_alive
        assert len(ticks) >= 4

    def test_destroy_closes_contexts(self, machine, proc, lib):
        handle = proc.load_library(lib)
        ctx = proc.open_context()
        proc.destroy()
        assert not ctx.is_open


class TestVeoRequestStates:
    def test_wait_on_dry_simulation_raises(self):
        sim = Simulator()
        request = VeoRequest(sim, 1, label="never")
        with pytest.raises(VeoCommandError, match="ran dry"):
            request.wait_result()

    def test_state_transitions(self):
        sim = Simulator()
        request = VeoRequest(sim, 2)
        assert request.state is RequestState.PENDING
        request._complete("v")
        assert request.peek_result() == (RequestState.DONE, "v")
        assert request.wait_result() == "v"

    def test_error_state(self):
        sim = Simulator()
        request = VeoRequest(sim, 3)
        request._fail(RuntimeError("inner"))
        assert request.state is RequestState.ERROR
        with pytest.raises(VeoCommandError) as excinfo:
            request.wait_result()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
