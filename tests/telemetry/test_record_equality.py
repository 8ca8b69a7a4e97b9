"""Every record and series of one scripted sequence, on an injected clock.

What a traced offload *produces* is the contract the recorder's hot path
may be restructured under: this file drives one fixed script through a
``Recorder(clock_ns=fake)`` — no wall clock — and compares every record
field by field, and the metrics snapshot series by series, against values
worked out by hand from the script. A change to the span path that
makes this file fail changed what telemetry records, not only its cost.
"""

import dataclasses
import os
import threading

import pytest

from repro.backends._client import close_reply_span
from repro.backends._server import FRAME_OVERHEAD
from repro.ham.message import MSG_RESULT, build_message
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext
from repro.telemetry.export import dicts_to_records, records_to_dicts
from repro.telemetry.recorder import Recorder
from repro.telemetry.slo import SLOMonitor

STEP = 1000  # every clock read advances the fake clock by this much

SAMPLED = TraceContext(trace_id=0xA1, span_id=0x77)

HEX = {ctx: f"{ctx.trace_id:032x}" for ctx in (SAMPLED,)}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += STEP
        return self.now


def reply_body(ctx: TraceContext) -> bytes:
    return build_message(
        MSG_RESULT, 0, 1, b"x", trace_id=ctx.trace_id,
        parent_span_id=5, trace_flags=ctx.flags,
    )


@pytest.fixture
def scripted():
    """Run the script once; yields ``(recorder, ids)``.

    Clock reads, in order (t = read number x STEP): 1 the recorder's
    epoch; then the reads noted in the comments below.
    """
    clock = FakeClock()
    rec = Recorder(clock_ns=clock)
    rec.slo = SLOMonitor(emit=rec.force_event, metrics=rec.metrics)
    telemetry.enable(recorder=rec)
    ids: dict[str, int] = {}

    # -- a sampled trace: nesting, a late attribute, an event --------------
    with trace_context.activate(SAMPLED):
        with telemetry.span("outer", node=1) as outer:  # t2
            with telemetry.span("inner", category="ham") as inner:  # t3
                inner.set("bytes", 64)
            # inner closed at t4
            telemetry.event("fault.injected", category="fault", kind="drop")  # t5
        # outer closed at t6
    ids["outer"], ids["inner"] = outer.span_id, inner.span_id

    # -- outside any trace: an exit with an exception ----------------------
    with pytest.raises(ValueError):
        with telemetry.span("failing") as failing:  # t7
            raise ValueError("boom")
    # closed at t8
    ids["failing"] = failing.span_id

    # -- a reply span closed on the receiving thread, outside any context --
    reply = telemetry.span("offload.reply", transport="shm")
    reply.__enter__()  # t9
    close_reply_span(reply, reply_body(SAMPLED))  # t10 -> the ring, untraced
    ids["reply"] = reply.span_id
    # An errored completion, then a plain one: aggregates only.
    telemetry.complete_offload(kernel="k", duration_ns=123, error=True,
                               recorder=rec)
    telemetry.complete_offload(kernel="k", duration_ns=1000, recorder=rec)
    assert clock.now == 10 * STEP
    yield rec, ids
    telemetry.disable()


def as_tuple(record):
    when = ((record.start_ns, record.duration_ns) if record.kind == "span"
            else (record.ts_ns,))
    return (record.kind, record.name, record.category, *when,
            record.parent_id, record.attrs, record.trace_id)


def test_every_record_field_by_field(scripted):
    rec, ids = scripted
    records = rec.records()
    t = STEP
    reply_bytes = len(reply_body(SAMPLED)) + FRAME_OVERHEAD
    assert [as_tuple(r) for r in records] == [
        ("span", "inner", "ham", 3 * t, t, ids["outer"],
         {"bytes": 64}, HEX[SAMPLED]),
        ("event", "fault.injected", "fault", 5 * t, ids["outer"],
         {"kind": "drop"}, HEX[SAMPLED]),
        # Top of the local stack: adopts the context's remote parent.
        ("span", "outer", "offload", 2 * t, 4 * t, SAMPLED.span_id,
         {"node": 1}, HEX[SAMPLED]),
        ("span", "failing", "offload", 7 * t, t, 0,
         {"error": "ValueError"}, ""),
        ("span", "offload.reply", "offload", 9 * t, t, 0,
         {"transport": "shm", "bytes": reply_bytes}, ""),
    ]
    assert rec.recorded == len(records) == 5 and rec.dropped == 0
    pid, tid = os.getpid(), threading.get_ident()
    for record in records:
        assert (record.pid, record.tid) == (pid, tid)
        assert record.span_id >> 40 == pid
    spans = [r for r in records if r.kind == "span"]
    assert [r.span_id for r in spans] == [
        ids["inner"], ids["outer"], ids["failing"], ids["reply"],
    ]
    assert len({r.span_id for r in records}) == len(records)
    assert spans[0].end_ns == 4 * t
    assert rec.current_span_id() == 0


def test_metrics_snapshot_series_by_series(scripted):
    rec, _ids = scripted
    snap = rec.metrics.snapshot()
    phases = {name: (h["count"], h["max"])
              for name, h in snap["histograms"].items()
              if name.startswith("phase.")}
    one_us = STEP / 1e9
    assert phases == {
        "phase.inner": (1, one_us),
        "phase.outer": (1, 4 * one_us),
        "phase.failing": (1, one_us),
        "phase.offload.reply": (1, one_us),
    }
    assert snap["counters"] == {
        "kernel.k.errors": 1,
    }
    # Two completions, the first one errored: 1 bad of 2 on both
    # objectives, burning a 1 % budget, below min_samples.
    burn = (1 / 2) / (1.0 - 0.99)
    assert snap["gauges"] == {
        f"slo.{name}.{series}": value
        for name in ("offload-latency", "offload-availability")
        for series, value in (("fast_burn", burn), ("slow_burn", burn),
                              ("breached", 0.0))
    }
    kernel = {name[len("kernel.k."):]: h["count"]
              for name, h in snap["histograms"].items()
              if name.startswith("kernel.k.")}
    assert (kernel["offload"], snap["counters"]["kernel.k.errors"]) == (2, 1)
    assert kernel == {
        "offload": 2,
    }


def test_records_survive_replace_and_the_dict_round_trip(scripted):
    rec, _ids = scripted
    records = rec.records()
    assert dicts_to_records(records_to_dicts(records)) == records
    span = next(r for r in records if r.kind == "span")
    event = next(r for r in records if r.kind == "event")
    shifted = dataclasses.replace(span, start_ns=span.start_ns + 7)
    assert shifted.start_ns == span.start_ns + 7
    assert dataclasses.replace(shifted, start_ns=span.start_ns) == span
    assert dataclasses.replace(event, ts_ns=1).ts_ns == 1


def test_span_minted_in_a_forked_child_carries_the_childs_pid():
    rec = Recorder(clock_ns=FakeClock())
    with rec.span("before-fork"):
        pass
    read_fd, write_fd = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the forked child
        status = 1
        try:
            with rec.span("in-child"):
                rec.event("in-child.event")
            event, span = rec.records()[-2:]
            os.write(write_fd, ",".join(map(str, (
                span.pid, span.span_id, event.pid, event.span_id,
            ))).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        span_pid, span_id, event_pid, event_id = map(int, pipe.read().split(","))
    assert os.waitpid(child, 0)[1] == 0
    assert child != os.getpid()
    assert (span_pid, span_id >> 40) == (child, child)
    assert (event_pid, event_id >> 40) == (child, child)
    (parent_span,) = rec.spans()
    assert parent_span.pid == parent_span.span_id >> 40 == os.getpid()
