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
import struct
import threading

import pytest

from repro.backends._client import FramedClient, close_reply_span
from repro.backends._server import (
    _PREFIX,
    FRAME_OVERHEAD,
    OP_INVOKE,
    OP_REPLY_BIT,
    FrameParser,
)
from repro.errors import RemoteExecutionError
from repro.ham import f2f
from repro.ham.execution import execute_message
from repro.ham.message import HEADER_SIZE_V3, MSG_RESULT, build_message
from repro.ham.registry import ProcessImage
from repro.offload import Runtime
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext
from repro.telemetry.export import dicts_to_records, records_to_dicts
from repro.telemetry.recorder import Recorder, SpanRecord

from tests import apps
from tests.backends import wire

STEP = 1000  # every clock read advances the fake clock by this much

SAMPLED = TraceContext(trace_id=0xA1, span_id=0x77)

HEX = {ctx: f"{ctx.trace_id:032x}" for ctx in (SAMPLED,)}

#: The execute time the scripted target reports, in ns (its own clock
#: is the wall clock: the reply is rewritten to this).
EXECUTE_NS = 500


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
    assert snap["gauges"] == {}
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


# -- a traced offload: stamped phases, one commit --------------------------


class Scripted(FramedClient):
    """A framed client whose target is this test: every frame it sends
    is answered at once, through the one parser, by frames built with
    ``tests/backends/wire.py`` — an INVOKE by executing it on an image
    that records nothing (a remote target's spans are its own)."""

    name = "tcp"
    peer = "script"

    def __init__(self) -> None:
        super().__init__(None, None, None)
        self.target = ProcessImage("scripted-target")
        self._parser = FrameParser(self, 1 << 20)
        self._arrived = b""
        #: ``(op, corr, body)`` of every frame sent.
        self.sent: list[tuple[int, int, bytes]] = []
        #: Called on every wait for bytes: mid-transport on a sync.
        self.on_wait = lambda: None

    # The byte source of the parser: what the "target" wrote.
    def recv(self, limit: int) -> bytes:
        chunk, self._arrived = self._arrived[:limit], self._arrived[limit:]
        return chunk

    def _await_bytes(self, timeout: float | None) -> bool:
        self.on_wait()
        return bool(self._arrived)

    def _transmit(self, frame: list, nbytes: int) -> None:
        data = b"".join(map(bytes, frame))
        assert len(data) == nbytes
        _length, op, corr = _PREFIX.unpack_from(data)
        body = data[_PREFIX.size:]
        self.sent.append((op, corr, body))
        reply = scripted_reply(self.target, body) if op == OP_INVOKE else b""
        self._arrived += b"".join(wire.frame(op | OP_REPLY_BIT, corr, reply))

    _post = _transmit


def scripted_reply(image, body) -> bytes:
    """:func:`execute_message`'s reply to ``body``, a version-3 one
    reporting :data:`EXECUTE_NS`."""
    reply = bytearray(execute_message(image, body)[0])
    if reply[2] == 3:
        struct.pack_into("<Q", reply, HEADER_SIZE_V3 - 8, EXECUTE_NS)
    return bytes(reply)


@pytest.fixture
def traced_runtime():
    """A runtime on a :class:`Scripted` client, recording into
    ``Recorder(clock_ns=FakeClock())``; yields
    ``(runtime, recorder)``. Offloads run inside the ``SAMPLED`` trace."""
    rec = Recorder(clock_ns=FakeClock())  # t1: the epoch
    telemetry.enable(recorder=rec)
    runtime = Runtime(Scripted())
    try:
        with trace_context.activate(SAMPLED):
            yield runtime, rec
    finally:
        telemetry.disable()
        runtime.shutdown()


def offload_tree(backend, rec, *, serialize, enqueue, transport, reply,
                 deserialize, kernel=apps.echo, error=None, execute_error=None):
    """The records the six phases of the last offload of ``kernel`` make,
    hand-worked: each host phase given as ``(start, end)`` in clock
    reads; ``error``, the phase and exception of a failed one. The
    target's execute is :data:`EXECUTE_NS` centred between enqueue's end
    and the reply's start (``execute_error``: what the kernel raised)."""
    op, corr, body = backend.sent[-1]
    assert op == OP_INVOKE
    result = scripted_reply(backend.target, body)
    label = f2f(kernel).type_name
    base = rec.records()[-6].span_id  # the serialize id: the remote parent
    assert base >> 40 == os.getpid()
    window = (reply[0] - enqueue[1]) * STEP
    execute_start = enqueue[1] * STEP + (window - EXECUTE_NS) // 2
    execute = {"bytes": len(body), "handler": label}
    if execute_error is not None:
        execute["error"] = execute_error

    def ns(reads):
        return reads[0] * STEP, (reads[1] - reads[0]) * STEP

    rows = [
        ("offload.serialize", ns(serialize), {"functor": label, "bytes": len(body)}),
        ("offload.enqueue", ns(enqueue),
         {"bytes": len(body), "functor": label, "corr": corr}),
        ("offload.execute", (execute_start, EXECUTE_NS), execute),
        ("offload.reply", ns(reply),
         {"transport": "tcp", "bytes": len(result) + FRAME_OVERHEAD}),
        ("offload.transport", ns(transport), {"label": label}),
        ("offload.deserialize", ns(deserialize), {"bytes": len(result)}),
    ]
    ids = {"offload.serialize": 0, "offload.enqueue": 1,
           "offload.transport": 2, "offload.reply": 3,
           "offload.deserialize": 4, "offload.execute": 5}
    records = []
    for name, (start, duration), attrs in rows:
        if error is not None and error[0] == name:
            attrs["error"] = error[1]
        records.append(SpanRecord(
            name, "offload", start, duration,
            base + ids[name],
            base + 2 if name in ("offload.reply", "offload.execute")
            else SAMPLED.span_id,
            os.getpid(), threading.get_ident(), attrs, HEX[SAMPLED],
        ))
    return records


def test_a_traced_sync_is_its_five_spans_field_by_field(traced_runtime):
    runtime, rec = traced_runtime
    assert runtime.sync(1, f2f(apps.echo, 7)) == 7
    # Clock reads: t2/t3 serialize; t4 enqueue, t5 ends it and starts the
    # transport, t6/t7 the reply in it, t8 ends it; t9/t10 deserialize.
    assert rec.records() == offload_tree(
        runtime.backend, rec, serialize=(2, 3), enqueue=(4, 5),
        transport=(5, 8), reply=(6, 7), deserialize=(9, 10))
    assert rec.recorded == 6 and rec.dropped == 0
    assert rec.current_span_id() == 0
    snap = rec.metrics.snapshot()
    phases = {name: h["count"] for name, h in snap["histograms"].items()
              if name.startswith("phase.")}
    assert phases == {f"phase.offload.{phase}": 1 for phase in (
        "serialize", "enqueue", "transport", "reply", "deserialize", "execute")}
    kernel = f2f(apps.echo, 0).type_name
    _op, _corr, body = runtime.backend.sent[-1]
    assert snap["counters"] == {
        "offload.issued": 1, "future.settled": 1,
        f"kernel.{kernel}.bytes": len(body),
    }
    assert snap["histograms"][f"kernel.{kernel}.offload"]["count"] == 1


def test_a_traced_future_is_its_five_spans_field_by_field(traced_runtime):
    runtime, rec = traced_runtime
    future = runtime.async_(1, f2f(apps.echo, 7))
    assert rec.records() == []  # committed where it settles
    assert future.get() == 7
    # The wait's transport starts at t6 and holds the reply read by the
    # pump (t7/t8); the waiter then decodes it (t10/t11).
    assert rec.records() == offload_tree(
        runtime.backend, rec, serialize=(2, 3), enqueue=(4, 5),
        transport=(6, 9), reply=(7, 8), deserialize=(10, 11))
    counters = rec.metrics.snapshot()["counters"]
    assert (counters["offload.issued"], counters["future.settled"]) == (1, 1)


def test_a_raising_kernel_tags_the_deserialize_record(traced_runtime):
    runtime, rec = traced_runtime
    with pytest.raises(RemoteExecutionError, match="ValueError: no"):
        runtime.sync(1, f2f(apps.raise_value_error, "no"))
    assert rec.records() == offload_tree(
        runtime.backend, rec, serialize=(2, 3), enqueue=(4, 5),
        transport=(5, 8), reply=(6, 7), deserialize=(9, 10),
        kernel=apps.raise_value_error,
        error=("offload.deserialize", "RemoteExecutionError"),
        execute_error="ValueError")
    kernel = f2f(apps.raise_value_error, "").type_name
    snap = rec.metrics.snapshot()
    assert snap["counters"][f"kernel.{kernel}.errors"] == 1
    assert snap["counters"]["future.settled"] == 1
    assert snap["histograms"][f"kernel.{kernel}.offload"]["count"] == 1


def test_an_event_mid_transport_parents_to_the_transport(traced_runtime):
    runtime, rec = traced_runtime
    backend = runtime.backend
    backend.on_wait = lambda: telemetry.event(  # t6, on the wait
        "fault.injected", category="fault", kind="delay")
    assert runtime.sync(1, f2f(apps.echo, 7)) == 7
    event, *offload = rec.records()  # the event lands first: the
    # offload's records are kept when it settles
    assert offload == offload_tree(
        backend, rec, serialize=(2, 3), enqueue=(4, 5), transport=(5, 9),
        reply=(7, 8), deserialize=(10, 11))
    transport = next(r for r in offload if r.name == "offload.transport")
    assert as_tuple(event) == (
        "event", "fault.injected", "fault", 6 * STEP, transport.span_id,
        {"kind": "delay"}, HEX[SAMPLED])
    assert rec.recorded == 7


def test_the_ring_wraps_by_records_not_by_offloads():
    rec = Recorder(capacity=7, clock_ns=FakeClock())
    telemetry.enable(recorder=rec)
    runtime = Runtime(Scripted())
    try:
        for i in range(3):
            assert runtime.sync(1, f2f(apps.echo, i)) == i
        kept = rec.records()
        assert (rec.recorded, rec.dropped, len(kept)) == (18, 11, 7)
        phases = rec.metrics.snapshot()["histograms"]
        assert all(phases[f"phase.{name}"]["count"] == 3 for name in (
            "offload.serialize", "offload.enqueue", "offload.transport",
            "offload.reply", "offload.deserialize", "offload.execute"))
    finally:
        telemetry.disable()
        runtime.shutdown()
    # The newest 7: the second offload's last one, the third's six.
    assert [r.name for r in kept] == [
        "offload.deserialize",
        "offload.serialize", "offload.enqueue", "offload.execute",
        "offload.reply", "offload.transport", "offload.deserialize",
    ]
    assert kept[0].trace_id != kept[1].trace_id
    assert [r.span_id - kept[1].span_id for r in kept[1:]] == [0, 1, 5, 3, 2, 4]
