"""Recording under contention: nothing lost, nothing twice.

A span's record and its phase fold are kept under one lock. Eight
threads open nested spans while the interpreter switches threads as
often as it can: every span opened is recorded once, in the ring and
in its phase histogram.
"""

import collections
import sys
import threading

from repro.telemetry import recorder as telemetry
from repro.telemetry.recorder import Recorder

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
