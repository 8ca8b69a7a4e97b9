"""Tests for the free-function API (paper Table II shape)."""

import signal

import numpy as np
import pytest

from repro.backends import LocalBackend
from repro.errors import BackendError, OffloadError
from repro.ham import f2f
from repro.offload import api as offload
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.leaks import resources


@pytest.fixture()
def api():
    offload.init(LocalBackend(num_targets=2))
    yield offload
    offload.finalize()


class TestGlobalRuntimeLifecycle:
    def test_uninitialized_use_rejected(self):
        assert not offload.is_initialized()
        with pytest.raises(OffloadError, match="not initialized"):
            offload.sync(1, f2f(apps.empty_kernel))

    def test_double_init_rejected(self, api):
        with pytest.raises(OffloadError, match="already initialized"):
            offload.init(LocalBackend())

    def test_finalize_idempotent(self):
        offload.init(LocalBackend())
        offload.finalize()
        offload.finalize()
        assert not offload.is_initialized()

    def test_reinit_after_finalize(self):
        offload.init(LocalBackend())
        offload.finalize()
        offload.init(LocalBackend())
        assert offload.is_initialized()
        offload.finalize()

    def test_finalize_gives_back_what_init_armed(self, tmp_path):
        """A session's crash dir and SIGUSR2 handler end with it: the
        next runtime does not dump into a directory this one chose."""
        flight = flightrecorder.get()
        before = (flight.crash_dir, signal.getsignal(signal.SIGUSR2))
        assert before[0] is None
        for session in ("first", "second"):
            offload.init(LocalBackend(),
                         telemetry={"enabled": False,
                                    "crash_dir": tmp_path / session})
            try:
                assert flight.crash_dir == tmp_path / session
                assert signal.getsignal(signal.SIGUSR2) != before[1]
                bundle = flightrecorder.trigger("probe", force=True)
                assert bundle.parent == tmp_path / session
            finally:
                offload.finalize()
            assert (flight.crash_dir,
                    signal.getsignal(signal.SIGUSR2)) == before
        # A session that arms nothing leaves a direct configure() alone.
        flightrecorder.configure(tmp_path / "mine", install_signal=False)
        try:
            offload.init(LocalBackend())
            offload.finalize()
            assert flight.crash_dir == tmp_path / "mine"
        finally:
            flight.crash_dir = None


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize(
    "options, error",
    [
        # Rejected before anything is spawned ...
        ({"telemetry": {"sample_rate": 2.0}}, ValueError),
        ({"telemetry": "yes"}, TypeError),
        # ... and raised by Runtime(...) with the target already up,
        # the second time with an endpoint and a sampler to take down.
        ({"window": 0}, BackendError),
        ({"window": 0, "telemetry": {"metrics_port": 0, "tsdb": True}}, BackendError),
    ],
)
def test_failed_init_leaves_nothing_behind(transport, options, error):
    before = resources(baseline=True)
    try:
        with pytest.raises(error):
            offload.init(transport, **options)
        assert not offload.is_initialized()
        assert offload.metrics_server() is None
        assert resources() == before
        # ... and the next, valid init finds a clean slate.
        offload.init(transport)
        assert offload.sync(1, f2f(apps.echo, 7)) == 7
    finally:
        offload.finalize()
        telemetry.disable()
    assert resources() == before


class TestTableIIOperations:
    def test_sync(self, api):
        assert api.sync(1, f2f(apps.add, 40, 2)) == 42

    def test_async(self, api):
        future = api.async_(2, f2f(apps.add, 1, 2))
        assert future.get() == 3

    def test_allocate_put_get_free(self, api):
        data = np.arange(32.0)
        ptr = api.allocate(1, 32)
        api.put(data, ptr).get()
        back = np.zeros(32)
        api.get(ptr, back).get()
        np.testing.assert_array_equal(back, data)
        api.free(ptr)

    def test_copy(self, api):
        src = api.allocate(1, 8)
        dst = api.allocate(2, 8)
        api.put(np.ones(8), src)
        api.copy(src, dst).get()
        back = np.zeros(8)
        api.get(dst, back)
        np.testing.assert_array_equal(back, np.ones(8))

    def test_topology_queries(self, api):
        assert api.num_nodes() == 3
        assert api.this_node() == 0
        assert api.get_node_descriptor(1).device_type == "cpu"

    def test_runtime_accessor(self, api):
        assert api.runtime().num_nodes() == 3

    def test_paper_fig2_program_shape(self, api):
        """The Fig. 2 program, line for line, via the free functions."""
        n = 1024
        a = np.random.default_rng(0).random(n)
        b = np.random.default_rng(1).random(n)
        target = 1
        a_target = api.allocate(target, n)
        b_target = api.allocate(target, n)
        api.put(a, a_target, n)
        api.put(b, b_target, n)
        result = api.async_(target, f2f(apps.inner_product, a_target, b_target, n))
        c = result.get()
        assert c == pytest.approx(float(np.dot(a, b)))
