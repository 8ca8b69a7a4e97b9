"""Live introspection: OP_INTROSPECT, inspect.snapshot, offload.introspect.

The contract under test: every transport answers ``introspect_target``
with the same payload shape, and ``inspect.snapshot`` merges host + target
+ the flight recorder into one JSON-serializable snapshot, which
``offload.introspect()`` returns for the global runtime.
"""

import json

from repro.backends import (
    DmaCommBackend,
    FanoutBackend,
    FaultInjectingBackend,
    LocalBackend,
    ShmBackend,
    TcpBackend,
    spawn_local_server,
    spawn_shm_server,
)
from repro.ham import f2f
from repro.offload import QoSConfig, ResiliencePolicy, Runtime
from repro.telemetry import flightrecorder, inspect
from repro.telemetry.inspect import SNAPSHOT_SCHEMA_VERSION

from tests import apps

#: Every transport's introspect payload must carry exactly these keys.
_PAYLOAD_KEYS = {
    "role", "transport", "pid", "messages_executed", "live_buffers", "rings",
}


def _check_payload(payload, transport):
    assert _PAYLOAD_KEYS <= set(payload)
    assert payload["role"] == "target"
    assert payload["transport"] == transport
    assert isinstance(payload["pid"], int)
    assert payload["messages_executed"] >= 1


class TestIntrospectTarget:
    def test_local_round_trip(self):
        runtime = Runtime(LocalBackend())
        try:
            runtime.sync(1, f2f(apps.add, 1, 2))
            payload = runtime.backend.introspect_target()
        finally:
            runtime.shutdown()
        _check_payload(payload, "local")
        assert payload["rings"] is None

    def test_tcp_round_trip(self):
        process, address = spawn_local_server()
        backend = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
        runtime = Runtime(backend)
        try:
            runtime.sync(1, f2f(apps.add, 1, 2))
            payload = backend.introspect_target(timeout=5.0)
        finally:
            runtime.shutdown()
        _check_payload(payload, "tcp")
        assert payload["rings"] is None

    def test_shm_round_trip_reports_rings(self):
        process, segment = spawn_shm_server()
        backend = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
        runtime = Runtime(backend)
        try:
            runtime.sync(1, f2f(apps.add, 1, 2))
            payload = backend.introspect_target(timeout=5.0)
        finally:
            runtime.shutdown()
        _check_payload(payload, "shm")
        rings = payload["rings"]
        assert rings["capacity"] > 0
        for ring in (rings["request"], rings["reply"]):
            assert {"used", "capacity", "spin_waits",
                    "sleep_stalls", "stalled_s"} <= set(ring)

    def test_payload_shape_is_transport_agnostic(self):
        """The tool contract: tcp and shm answer identical key sets."""
        process, address = spawn_local_server()
        tcp = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        tcp_runtime = Runtime(tcp)
        try:
            tcp_runtime.sync(1, f2f(apps.add, 1, 2))
            tcp_payload = tcp.introspect_target(timeout=5.0)
        finally:
            tcp_runtime.shutdown()
        shm_process, segment = spawn_shm_server()
        shm = ShmBackend(
            segment,
            alive_fn=shm_process.is_alive,
            on_shutdown=lambda: shm_process.join(timeout=5),
        )
        shm_runtime = Runtime(shm)
        try:
            shm_runtime.sync(1, f2f(apps.add, 1, 2))
            shm_payload = shm.introspect_target(timeout=5.0)
        finally:
            shm_runtime.shutdown()
        assert set(tcp_payload) == set(shm_payload) == _PAYLOAD_KEYS

    def test_fanout_sums_what_the_dispatch_loops_did(self):
        class Inner:
            name = "stub"

            def __init__(self, executed, live):
                self.state = {"role": "target", "messages_executed": executed,
                              "live_buffers": live}

            def introspect_target(self, timeout=None):
                return self.state

        payload = FanoutBackend(
            [Inner(2, 0), Inner(5, 1), LocalBackend()]
        ).introspect_target()
        assert (payload["messages_executed"], payload["live_buffers"]) == (7, 1)
        assert [target["node"] for target in payload["targets"]] == [1, 2, 3]
        assert payload["targets"][1]["messages_executed"] == 5


class TestRuntimeInspector:
    """``inspect.snapshot(runtime)``: host, target and flight in one."""

    def test_snapshot_merges_host_target_and_flight(self):
        runtime = Runtime(LocalBackend())
        try:
            runtime.sync(1, f2f(apps.add, 1, 2))
            snapshot = inspect.snapshot(runtime)
        finally:
            runtime.shutdown()
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["host"]["pid"] > 0
        window = snapshot["host"]["window"]
        assert window["in_flight"] == 0 and window["limit"] > 0
        assert snapshot["host"]["backend"]["backend"] == "local"
        assert snapshot["target"]["role"] == "target"
        assert {"noted", "dropped", "dumps", "crash_dir"} <= set(
            snapshot["flight"]
        )

    def test_probe_target_false_skips_the_wire(self):
        runtime = Runtime(LocalBackend())
        try:
            snapshot = inspect.snapshot(runtime, probe_target=False)
        finally:
            runtime.shutdown()
        assert snapshot["target"] is None

    def test_snapshot_is_json_serializable(self):
        """Plain data: a caller can write it out verbatim."""
        runtime = Runtime(LocalBackend())
        try:
            snapshot = inspect.snapshot(runtime)
        finally:
            runtime.shutdown()
        json.dumps(snapshot, default=str)

    def test_offload_introspect_probes_the_target(self):
        from repro.offload import api as offload

        offload.init(LocalBackend())
        try:
            offload.sync(1, f2f(apps.add, 2, 3))
            snapshot = offload.introspect()
        finally:
            offload.finalize()
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["host"]["pid"] > 0
        assert snapshot["target"]["transport"] == "local"


class TestThroughProxies:
    """A chaos proxy forwards its target's state, and a fan-out lists a
    wrapped member like any other."""

    def test_a_faulty_proxy_shows_its_target(self):
        runtime = Runtime(FaultInjectingBackend(LocalBackend()))
        try:
            runtime.sync(1, f2f(apps.add, 1, 2))
            target = inspect.snapshot(runtime)["target"]
        finally:
            runtime.shutdown()
        _check_payload(target, "local")

    def test_a_fanout_lists_a_wrapped_member(self):
        runtime = Runtime(FanoutBackend(
            [LocalBackend(), FaultInjectingBackend(LocalBackend())]
        ))
        try:
            targets = inspect.snapshot(runtime)["target"]["targets"]
        finally:
            runtime.shutdown()
        assert [t["node"] for t in targets] == [1, 2]
        assert not any("error" in t for t in targets)

    def test_forked_tcp_targets_behind_a_fanout_all_show(self):
        """Two spawned tcp targets, the second behind a chaos proxy: the
        snapshot lists both as live targets, the proxied one too."""
        inners = []
        for _ in range(2):
            process, address = spawn_local_server()
            inners.append(TcpBackend(
                address, on_shutdown=lambda p=process: p.join(timeout=5)
            ))
        runtime = Runtime(FanoutBackend(
            [inners[0], FaultInjectingBackend(inners[1])]
        ))
        try:
            for node in (1, 2):
                assert runtime.sync(node, f2f(apps.add, node, 1)) == node + 1
            targets = inspect.snapshot(runtime)["target"]["targets"]
        finally:
            runtime.shutdown()
        assert [t["node"] for t in targets] == [1, 2]
        for target in targets:
            _check_payload(target, "tcp")

    def test_a_simulator_has_no_target_state(self):
        runtime = Runtime(DmaCommBackend())
        try:
            assert inspect.snapshot(runtime)["target"] is None
        finally:
            runtime.shutdown()


class TestOneSnapshot:
    """A crash bundle's ``state.json`` is not a second description of
    the runtime: entry for entry it is the snapshot's ``host``."""

    def test_state_json_is_the_host_entry_of_introspect(self, tmp_path):
        from repro.offload import api as offload

        def host():
            snapshot = offload.introspect(probe_target=False)
            return json.loads(json.dumps(snapshot["host"], default=str))

        process, address = spawn_local_server()
        flight = flightrecorder.get()
        crash_dir, flight.crash_dir = flight.crash_dir, tmp_path
        offload.init(
            TcpBackend(address, on_shutdown=lambda: process.join(timeout=5)),
            policy=ResiliencePolicy(deadline=5.0),
            window=4,
            qos=QoSConfig(),
        )
        try:
            futures = [offload.async_(1, f2f(apps.sleep_then, 0.5, i))
                       for i in range(2)]
            for _ in range(10):  # "at the same moment": nothing moved across
                before = host()
                bundle = flight.dump("manual")
                if before == host():
                    break
            [state] = flightrecorder.load_bundle(bundle)["state"]
            assert state == before
            assert [f.get() for f in futures] == [0, 1]
        finally:
            offload.finalize()
            flight.crash_dir = crash_dir
        window = state["window"]
        assert (window["in_flight"], window["limit"]) == (2, 4)
        assert len({handle["corr"] for handle in window["handles"]}) == 2
        assert {handle["label"] for handle in window["handles"]} == {
            f2f(apps.sleep_then, 0.5, 0).type_name}
        assert state["policy"] == {"deadline": 5.0, "max_retries": 0,
                                   "failover": True}
        assert state["backend"]["reactor"] == {"wakeups": 0}
        assert "flush_reasons" in state["backend"]["batch"]
        assert {"pid", "qos", "health"} <= set(state)
        assert state["qos"] == {"admission": {"default": {
            "admitted": 2, "rejected": 0, "tokens": None}}}
