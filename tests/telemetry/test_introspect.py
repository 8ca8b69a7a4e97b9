"""Live introspection: OP_INTROSPECT, inspect.snapshot, /introspect, top.

The contract under test: every transport answers ``introspect_target``
with the same payload shape, ``inspect.snapshot`` merges host + target + the
flight recorder into one snapshot, the metrics server serves it as
JSON, and ``repro top`` renders it without touching the network.
"""

import json
import urllib.error
import urllib.request

import pytest

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
from repro.telemetry import flightrecorder, inspect, top
from repro.telemetry.inspect import SNAPSHOT_SCHEMA_VERSION

from tests import apps

#: Every transport's introspect payload must carry exactly these keys.
_PAYLOAD_KEYS = {
    "role", "transport", "pid", "workers", "pending_invokes",
    "messages_executed", "live_buffers", "rings",
}


def _check_payload(payload, transport):
    assert _PAYLOAD_KEYS <= set(payload)
    assert payload["role"] == "target"
    assert payload["transport"] == transport
    assert isinstance(payload["pid"], int)
    assert payload["workers"]["pool_size"] >= 1
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
        # The worker decrements its active counter after sending the
        # reply, so a probe racing the tail of the last sync may still
        # see it — a live view, not a settled ledger.
        assert payload["pending_invokes"] in (0, 1)

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
        assert set(tcp_payload) == set(shm_payload)
        assert set(tcp_payload["dispatch"]) == {"reader", "handoffs", "promotions"}
        assert tcp_payload["dispatch"]["reader"].startswith("ham-tcp-worker-")
        assert shm_payload["dispatch"]["reader"].startswith("ham-shm-worker-")

    def test_fanout_sums_what_the_dispatch_loops_did(self):
        class Inner:
            name = "stub"

            def __init__(self, handoffs, promotions):
                self.dispatch = {"reader": "ham-stub-worker-0",
                                 "handoffs": handoffs, "promotions": promotions}

            def introspect_target(self, timeout=None):
                return {"role": "target", "dispatch": self.dispatch}

        payload = FanoutBackend(
            [Inner(2, 0), Inner(5, 1), LocalBackend()]
        ).introspect_target()
        assert payload["dispatch"] == {
            "reader": None, "handoffs": 7, "promotions": 1,
        }
        assert payload["targets"][1]["dispatch"]["reader"] == "ham-stub-worker-0"


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
        """The /introspect endpoint must be able to serve it verbatim."""
        runtime = Runtime(LocalBackend())
        try:
            snapshot = inspect.snapshot(runtime)
        finally:
            runtime.shutdown()
        json.dumps(snapshot, default=str)


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
        assert "max_lag_us" in state["backend"]["reactor"]
        assert "flush_reasons" in state["backend"]["batch"]
        assert {"pid", "qos", "health"} <= set(state)
        assert state["qos"] == {"admission": {"default": {
            "admitted": 2, "rejected": 0, "tokens": None}}}


class TestIntrospectEndpoint:
    def test_endpoint_serves_the_snapshot(self):
        from repro.offload import api as offload

        offload.init(LocalBackend(), telemetry={"metrics_port": 0})
        try:
            offload.sync(1, f2f(apps.add, 2, 3))
            url = offload.metrics_server().url
            snapshot = top.fetch_snapshot(url)
            assert snapshot["host"]["pid"] > 0
            assert snapshot["target"]["transport"] == "local"
            # offload.introspect() returns the same merged payload.
            direct = offload.introspect()
            assert set(direct) == set(snapshot)
        finally:
            offload.finalize()

    def test_server_without_introspect_fn_404s(self):
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.promexport import MetricsServer

        server = MetricsServer(MetricsRegistry().snapshot)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/introspect", timeout=2)
            assert err.value.code == 404
        finally:
            server.close()


class TestTopRendering:
    def _snapshot(self):
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "host": {
                "pid": 100,
                "window": {
                    "in_flight": 2, "limit": 8,
                    "handles": [
                        {"corr": 1, "label": "stencil"},
                        {"corr": 2, "label": "stencil"},
                    ],
                },
                "backend": {
                    "backend": "shm",
                    "request_ring": {"used": 512, "capacity": 1024,
                                     "sleep_stalls": 3},
                    "reply_ring": {"used": 0, "capacity": 1024},
                    "pending_replies": 2,
                },
                "qos": {"admission": {
                    "gold": {"admitted": 5, "rejected": 0, "tokens": None},
                    "noisy": {"admitted": 9, "rejected": 4, "tokens": 0.5},
                }},
                "health": {1: {"health": "up"}},
            },
            "target": {
                "role": "target", "transport": "shm", "pid": 200,
                "workers": {"pool_size": 4, "active": 1},
                "dispatch": {"reader": "ham-shm-worker-2", "handoffs": 3,
                             "promotions": 1},
                "pending_invokes": 1, "messages_executed": 42,
                "live_buffers": 2,
                "rings": {"capacity": 1024,
                          "request": {"used": 512, "capacity": 1024},
                          "reply": {"used": 0, "capacity": 1024}},
            },
            "flight": {"noted": 7, "dropped": 0, "dumps": [],
                       "crash_dir": None},
        }

    def test_render_frame_shows_all_sections(self):
        frame = top.render_frame(self._snapshot(), source="test")
        assert "HOST  pid 100" in frame
        assert "2/8 in flight" in frame
        assert "stencilx2" in frame
        assert "512/1024 (50.0%) (3 stalls)" in frame
        assert "TARGET  pid 200 (shm)" in frame
        assert "1/4 active" in frame
        assert "executed 42" in frame
        assert "handoffs 3   promotions 1   reader ham-shm-worker-2" in frame
        assert "FLIGHT  noted 7" in frame
        assert "1:up" in frame
        assert "admitted/rejected gold=5/0 noisy=9/4" in frame

    def test_render_frame_handles_unreachable_target(self):
        snapshot = self._snapshot()
        snapshot["target"] = {"role": "target", "error": "unreachable"}
        frame = top.render_frame(snapshot, source="test")
        assert "TARGET  unreachable" in frame

    def test_render_frame_handles_error_payload(self):
        frame = top.render_frame(
            {"error": "offload API not initialized"}, source="test"
        )
        assert "offload API not initialized" in frame

    def test_once_against_dead_endpoint_exits_nonzero(self, capsys):
        rc = top.main(["http://127.0.0.1:1", "--once", "--timeout", "0.2"])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().out

    def test_once_against_live_endpoint_exits_zero(self, capsys):
        from repro.offload import api as offload

        offload.init(LocalBackend(), telemetry={"metrics_port": 0})
        try:
            rc = top.main([offload.metrics_server().url, "--once"])
        finally:
            offload.finalize()
        assert rc == 0
        assert "HOST" in capsys.readouterr().out

    def test_json_one_shot_prints_raw_snapshot(self, capsys):
        from repro.offload import api as offload

        offload.init(LocalBackend(), telemetry={"metrics_port": 0})
        try:
            offload.sync(1, f2f(apps.add, 2, 3))
            rc = top.main([offload.metrics_server().url, "--json"])
        finally:
            offload.finalize()
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert payload["host"]["pid"] > 0

    def test_json_against_dead_endpoint_exits_nonzero(self, capsys):
        rc = top.main(["http://127.0.0.1:1", "--json", "--timeout", "0.2"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unreachable" in out.err

