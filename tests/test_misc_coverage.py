"""Edge-case tests for smaller modules: errors hierarchy, tracer modes,
slot layout, breakdown helper, VEO request states."""

import pytest

import repro.errors as errors_mod
from repro.backends import LocalBackend
from repro.backends._sim_common import SlotLayout
from repro.bench.breakdown import offload_breakdown
from repro.errors import BackendError, ReproError, VeoCommandError
from repro.ham import f2f
from repro.offload import Runtime
from repro.sim import Simulator, Tracer
from repro.veo.request import RequestState, VeoRequest

from tests import apps


class TestErrorHierarchy:
    def test_every_exported_error_is_a_repro_error(self):
        exception_types = [
            obj
            for name, obj in vars(errors_mod).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == "repro.errors"
        ]
        assert len(exception_types) > 15
        for exc_type in exception_types:
            assert issubclass(exc_type, ReproError), exc_type

    def test_remote_execution_error_carries_traceback(self):
        from repro.errors import RemoteExecutionError

        error = RemoteExecutionError("boom", remote_traceback="TB")
        assert error.remote_traceback == "TB"

    def test_catching_base_class_catches_everything(self):
        from repro.errors import DmaatbError

        with pytest.raises(ReproError):
            raise DmaatbError("x")


class TestTracerModes:
    def test_record_events_mode(self):
        sim = Simulator()
        tracer = Tracer(record_events=True).attach(sim)
        sim.timeout(1.0)
        sim.run()
        assert any(r.kind == "event" for r in tracer.records)

    def test_spans_filter_by_prefix(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        tracer.span("a.x", 0.0)
        tracer.span("b.y", 0.0)
        assert len(tracer.spans("a.")) == 1
        assert tracer.total_duration("") == 0.0


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


class TestBreakdownHelper:
    def test_requires_simulated_backend(self):
        runtime = Runtime(LocalBackend())
        with pytest.raises(BackendError, match="simulated backend"):
            offload_breakdown(runtime, f2f(apps.empty_kernel))
        runtime.shutdown()


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
