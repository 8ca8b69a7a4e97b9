"""Unit tests for simulation resources (Resource, Store, Channel)."""

import pytest

from repro.errors import ProcessError
from repro.sim import Channel, Resource, Simulator, Store, Tracer


@pytest.fixture()
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_below_capacity(self, sim):
        res = Resource(sim, capacity=2)
        granted = []

        def proc(i):
            yield res.request()
            granted.append(i)

        sim.process(proc(0))
        sim.process(proc(1))
        sim.run()
        assert sorted(granted) == [0, 1]
        assert res.in_use == 2

    def test_mutex_serialises_critical_sections(self, sim):
        res = Resource(sim, capacity=1)
        active = {"n": 0, "max": 0}

        def proc():
            yield res.request()
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            yield sim.timeout(1.0)
            active["n"] -= 1
            res.release()

        for _ in range(5):
            sim.process(proc())
        sim.run()
        assert active["max"] == 1
        assert sim.now == 5.0

    def test_fifo_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def proc(i):
            yield sim.timeout(i * 0.1)  # stagger arrival
            yield res.request()
            order.append(i)
            yield sim.timeout(1.0)
            res.release()

        for i in range(4):
            sim.process(proc(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_request_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(ProcessError):
            res.release()

    def test_interrupted_waiter_does_not_leak_capacity(self, sim):
        from repro.sim import Interrupt

        res = Resource(sim, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def doomed():
            try:
                yield res.request()
            except Interrupt:
                order.append("interrupted")
                return
            order.append("granted")  # pragma: no cover - must not happen
            res.release()

        def survivor():
            yield sim.timeout(1.0)
            yield res.request()
            order.append(("survivor", sim.now))
            res.release()

        sim.process(holder())
        victim = sim.process(doomed())
        sim.process(survivor())
        sim.run(until=0.5)
        victim.interrupt()
        sim.run()
        # The unit freed at t=10 must reach the survivor, not the dead
        # waiter, and capacity must fully recover.
        assert order == ["interrupted", ("survivor", 10.0)]
        assert res.in_use == 0

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1.0)
        assert res.queue_length == 1
        sim.run()
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        sim.process(consumer())
        store.put("x")
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_bounded_store_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        timeline = []

        def producer():
            yield store.put("a")
            timeline.append(("a", sim.now))
            yield store.put("b")
            timeline.append(("b", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert timeline == [("a", 0.0), ("b", 5.0)]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)
        store.put(7)
        sim.run()
        assert store.try_get() == (True, 7)

    def test_len(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestChannel:
    def test_zero_delay_delivery(self, sim):
        chan = Channel(sim)
        got = []

        def consumer():
            msg = yield chan.recv()
            got.append((msg, sim.now))

        sim.process(consumer())
        chan.send("hi")
        sim.run()
        assert got == [("hi", 0.0)]

    def test_delay_applied(self, sim):
        chan = Channel(sim, delay=2.0)
        got = []

        def consumer():
            msg = yield chan.recv()
            got.append((msg, sim.now))

        sim.process(consumer())
        chan.send("hi")
        sim.run()
        assert got == [("hi", 2.0)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, delay=-1.0)

    def test_message_order_preserved(self, sim):
        chan = Channel(sim, delay=1.0)
        got = []

        def consumer():
            for _ in range(3):
                msg = yield chan.recv()
                got.append(msg)

        sim.process(consumer())
        for i in range(3):
            chan.send(i)
        sim.run()
        assert got == [0, 1, 2]


class TestTracer:
    def test_span_and_point_records(self, sim):
        from repro.sim import Tracer

        tracer = Tracer().attach(sim)

        def proc():
            start = sim.now
            yield sim.timeout(2.0)
            tracer.span("phase.a", start)
            tracer.point("milestone")

        sim.process(proc())
        sim.run()
        assert tracer.total_duration("phase") == 2.0
        assert any(r.kind == "point" and r.label == "milestone" for r in tracer.records)

    def test_fired_event_count(self, sim):
        from repro.sim import Tracer

        tracer = Tracer().attach(sim)
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert tracer.fired_events == 2

    def test_detach(self, sim):
        from repro.sim import Tracer

        tracer = Tracer().attach(sim)
        tracer.detach()
        assert sim.tracer is None

    def test_clear(self, sim):
        from repro.sim import Tracer

        tracer = Tracer().attach(sim)
        tracer.point("x")
        tracer.clear()
        assert tracer.records == []


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
