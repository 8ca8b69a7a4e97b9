"""Every series a live TSDB tick produces follows one dotted-segment
grammar.

The registry's names are declared (``repro.telemetry.signals``, held to
the source by ``test_signals.py``); the TSDB derives more at run time —
``<histogram>.count`` / ``.p95``, the scoreboard's ``target.*.<node>`` —
and its store is flat, so the only structure those have is the
convention: dot-separated segments of ``[A-Za-z0-9_-]``, with
discriminating labels (node id, tenant, series) as the *final* segments
— ``health.node_state.<node>``, ``target.reply.<node>.p95``,
``slo.offload-latency.fast_burn``.
"""

import re

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tsdb import AnomalyDetector, Tsdb

#: One dotted segment: a plain token, or the ``<anonymous>`` /
#: ``<unknown>`` kernel sentinels.
_SEGMENT = re.compile(r"^([A-Za-z0-9_-]+|<[a-z]+>)$")


def assert_valid_name(name: str, *, where: str = "") -> None:
    segments = name.split(".")
    assert segments, f"{where}: empty metric name"
    for segment in segments:
        assert _SEGMENT.match(segment), (
            f"{where}: segment {segment!r} of {name!r} breaks the "
            "dotted-name grammar [A-Za-z0-9_-]"
        )


class _GrammarBackend:
    def stats(self):
        return {"pending_replies": 1, "send_queue_bytes": 10,
                "request_ring_used": 1, "ring_capacity": 2}


class _GrammarRuntime:
    backend = _GrammarBackend()


class TestDynamicGrammar:
    def test_every_live_series_matches(self):
        reg = MetricsRegistry()
        reg.counter("offload.issued").inc()
        reg.gauge("health.node_state.1").set(1.0)
        reg.log_histogram("target.reply.1").observe(0.01)
        reg.log_histogram("kernel.<anonymous>.offload").observe(0.01)
        reg.gauge("slo.offload-latency.fast_burn").set(0.1)
        tsdb = Tsdb(reg, interval=1.0)
        tsdb.attach_runtime(_GrammarRuntime())
        for tick in range(10):
            tsdb.sample_once(now=float(tick + 1))
        for name in tsdb.store.names():
            assert_valid_name(name, where="tsdb store")
        for section in ("counters", "gauges", "histograms"):
            for name in reg.snapshot()[section]:
                assert_valid_name(name, where=f"registry {section}")

    def test_anomaly_gauges_match(self):
        reg = MetricsRegistry()
        tsdb = Tsdb(reg, interval=1.0)
        det = AnomalyDetector(tsdb.store, reg, min_samples=5)
        for tick in range(19):
            tsdb.store.record("target.in_flight.1", 1.0, float(tick))
        tsdb.store.record("target.in_flight.1", 99.0, 19.0)
        det.evaluate(now=19.0)
        for name in reg.snapshot()["gauges"]:
            assert_valid_name(name, where="anomaly gauges")

    def test_grammar_rejects_what_it_should(self):
        import pytest

        for bad in ("", "a..b", "a b", "a.b!", "emoji.🔥"):
            with pytest.raises(AssertionError):
                assert_valid_name(bad)
