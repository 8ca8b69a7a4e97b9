"""Recording under contention: nothing lost, nothing twice.

A span's record and its phase fold are kept under one lock, and so are
a traced offload's records, its five phase folds and its counters, in
one commit. Eight threads open nested spans, or run traced offloads,
while the interpreter switches threads as often as it can: every span
opened and every offload is recorded once, in the ring and in its phase
histograms.
"""

import collections
import sys
import threading

from repro.ham import f2f
from repro.offload import api as offload_api
from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import PHASES, Recorder

from tests import apps

THREADS, SPANS = 8, 500
NAMES = ("outer", "middle", "inner")


def test_every_nested_span_is_recorded_once():
    rec = Recorder(capacity=THREADS * SPANS * len(NAMES))
    telemetry.enable(recorder=rec)
    start = threading.Barrier(THREADS)
    opened = collections.Counter()
    lock = threading.Lock()

    def work():
        start.wait()
        mine = collections.Counter()
        for _ in range(SPANS):
            with telemetry.span("outer"):
                mine["outer"] += 1
                with telemetry.span("middle"):
                    mine["middle"] += 1
                    with telemetry.span("inner"):
                        mine["inner"] += 1
        with lock:
            opened.update(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        telemetry.disable()

    records = rec.records()
    assert sum(opened.values()) == THREADS * SPANS * len(NAMES)
    assert rec.recorded == len(records) == sum(opened.values())
    assert rec.dropped == 0
    span_ids = [record.span_id for record in records]
    assert len(set(span_ids)) == len(span_ids)
    histograms = rec.metrics.snapshot()["histograms"]
    for name in NAMES:
        assert histograms[f"phase.{name}"]["count"] == opened[name]
    # Nesting survived the switching: each thread's spans parent within it.
    by_id = {record.span_id: record for record in records}
    for record in records:
        parent = by_id.get(record.parent_id)
        expected = {"outer": None, "middle": "outer", "inner": "middle"}
        assert (parent.name if parent else None) == expected[record.name]
        if parent is not None:
            assert parent.tid == record.tid


def test_every_traced_offload_is_its_five_records_once():
    """Eight threads post a future, sync, then collect the future, on
    tcp: the syncs read replies inline, so replies are read by whichever
    thread gets there first. Each offload still commits exactly its five
    records, whole, and one fold into each phase histogram."""
    offloads = 40
    runtime = offload_api.init("tcp", telemetry=True)
    recorder = telemetry.get()
    start = threading.Barrier(THREADS)
    failures = []

    def work(index):
        try:
            start.wait()
            for i in range(offloads):
                future = runtime.async_(1, f2f(apps.echo, (index, i, "future")))
                assert runtime.sync(1, f2f(apps.echo, (index, i))) == (index, i)
                assert future.get(timeout=60) == (index, i, "future")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        recorded = recorder.recorded
        workers = [threading.Thread(target=work, args=(index,))
                   for index in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
        assert not any(worker.is_alive() for worker in workers)
        # Read before finalize, whose pulls record control frames.
        recorded = recorder.recorded - recorded
        kept = recorder.records()[-recorded:]
        histograms = recorder.metrics.snapshot()["histograms"]
    finally:
        sys.setswitchinterval(interval)
        offload_api.finalize()
        telemetry.disable()
    assert not failures, failures
    total = THREADS * offloads * 2
    assert recorded == 5 * total
    assert recorder.dropped == 0
    by_trace = collections.defaultdict(list)
    for record in kept:
        by_trace[record.trace_id].append(record)
    assert len(by_trace) == total
    label = f2f(apps.echo, 0).type_name
    corrs = set()
    for records in by_trace.values():
        assert [r.name for r in records] == [
            PHASES[0], PHASES[1], PHASES[3], PHASES[2], PHASES[4]]
        serialize, enqueue, reply, transport, deserialize = records
        base = serialize.span_id
        assert [r.span_id - base for r in records] == [0, 1, 3, 2, 4]
        assert reply.parent_id == transport.span_id
        assert {r.parent_id for r in records if r is not reply} == {0}
        assert len({r.tid for r in records}) == 1  # a thread's own offload
        assert all(r.duration_ns >= 0 for r in records)
        assert serialize.end_ns <= enqueue.start_ns <= transport.start_ns
        assert transport.end_ns <= deserialize.start_ns
        # A future's reply may be read by another thread before its
        # wait begins: it is stamped when it is dispatched to the handle.
        assert enqueue.start_ns <= reply.start_ns <= reply.end_ns
        assert reply.end_ns <= deserialize.start_ns
        assert serialize.attrs == {"functor": label,
                                   "bytes": enqueue.attrs["bytes"]}
        assert enqueue.attrs["functor"] == transport.attrs["label"] == label
        assert reply.attrs["transport"] == "tcp"
        corrs.add(enqueue.attrs["corr"])
    assert len(corrs) == total
    # The warm-up of init records nothing: every fold is one of these.
    for name in PHASES:
        assert histograms[f"phase.{name}"]["count"] == total
