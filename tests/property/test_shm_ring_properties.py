"""Property-based tests of the shm SPSC ring invariants.

The ring is the correctness core of the shared-memory transport: a
monotonic-cursor single-producer/single-consumer frame pipe inside one
shared segment, published a whole frame at a time in place and taken a
frame at a time. Everything here runs both ring ends in one process —
the invariants (FIFO frame integrity across wraparound,
never-overwrite-unread, capacity-full backpressure) are positional, not
concurrency, properties.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends._server import FRAME_OVERHEAD
from repro.backends.shm import (
    ShmSegment,
    _host_to_target_ring,
    _target_to_host_ring,
)
from repro.errors import BackendError, OffloadTimeoutError

from tests.backends.wire import frame, sized

CAPACITY = 4096

# Payload sizes skewed toward frame/capacity boundaries so wraparound
# and nearly-full states are exercised constantly, not occasionally.
payloads = st.binary(max_size=600) | st.binary(
    min_size=CAPACITY // 2 - 40, max_size=CAPACITY // 2
)


@pytest.fixture()
def segment():
    seg = ShmSegment.create(CAPACITY)
    yield seg
    seg.close()
    seg.unlink()


def rings(seg):
    """The producer and the consumer end of the h2t ring."""
    return _host_to_target_ring(seg), _host_to_target_ring(seg)


def read_frame(consumer):
    """The next ``(op, corr, body)`` taken off ``consumer``."""
    op, corr, body, _more = consumer.take(1.0)
    return op, corr, body


def drained(consumer):
    """Nothing left in the ring."""
    return not consumer.readable() and consumer.take(0) is None


class TestRingProperties:
    @given(messages=st.lists(payloads, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_fifo_frame_integrity(self, messages):
        """Frames drained one-by-one come back verbatim and in order,
        whatever sizes (and wrap positions) went in."""
        seg = ShmSegment.create(CAPACITY)
        try:
            producer, consumer = rings(seg)
            for index, body in enumerate(messages):
                producer.publish(1, index, body, timeout=1.0)
                op, corr, view = read_frame(consumer)
                assert (op, corr, bytes(view)) == (1, index, body)
            assert drained(consumer)
        finally:
            seg.close()
            seg.unlink()

    @given(
        messages=st.lists(payloads, max_size=40),
        drain_after=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_write_read_preserves_order(
        self, messages, drain_after
    ):
        """Batched producer / lagging consumer: every ``drain_after``
        writes the consumer catches up. The shadow deque must match
        exactly — the producer can never clobber an unread frame."""
        seg = ShmSegment.create(CAPACITY)
        try:
            producer, consumer = rings(seg)
            shadow: deque[tuple[int, bytes]] = deque()
            pending_bytes = 0
            for index, body in enumerate(messages):
                size = FRAME_OVERHEAD + len(body)
                if pending_bytes + size > CAPACITY:
                    # Would block: drain everything first.
                    while shadow:
                        _op, corr, view = read_frame(consumer)
                        want_corr, want_body = shadow.popleft()
                        assert (corr, bytes(view)) == (want_corr, want_body)
                    pending_bytes = 0
                producer.publish(2, index, body, timeout=1.0)
                shadow.append((index, body))
                pending_bytes += size
                if index % drain_after == 0:
                    while shadow:
                        _op, corr, view = read_frame(consumer)
                        want_corr, want_body = shadow.popleft()
                        assert (corr, bytes(view)) == (want_corr, want_body)
                    pending_bytes = 0
            while shadow:
                _op, corr, view = read_frame(consumer)
                want_corr, want_body = shadow.popleft()
                assert (corr, bytes(view)) == (want_corr, want_body)
            assert drained(consumer)
        finally:
            seg.close()
            seg.unlink()

    def test_full_ring_backpressure_times_out(self, segment):
        """A producer against a full ring (nobody draining) must raise
        OffloadTimeoutError, not overwrite unread frames."""
        producer, consumer = rings(segment)
        body = bytes(CAPACITY // 4)
        written = 0
        with pytest.raises(OffloadTimeoutError, match="stayed full"):
            for index in range(10):
                producer.publish(3, index, body, timeout=0.05)
                written += 1
        # Everything that *was* accepted is intact.
        for index in range(written):
            op, corr, view = read_frame(consumer)
            assert (op, corr, bytes(view)) == (3, index, body)
        assert drained(consumer)

    def test_blocked_writer_proceeds_once_reader_drains(self, segment):
        producer, consumer = rings(segment)
        body = bytes(CAPACITY // 4)
        for index in range(3):
            producer.publish(4, index, body, timeout=0.5)
        # One more would exceed capacity; free a slot and retry.
        with pytest.raises(OffloadTimeoutError):
            producer.publish(4, 3, body, timeout=0.05)
        read_frame(consumer)
        producer.publish(4, 3, body, timeout=0.5)
        for index in range(1, 4):
            _op, corr, _view = read_frame(consumer)
            assert corr == index

    def test_oversized_frame_rejected_outright(self, segment):
        producer, _consumer = rings(segment)
        with pytest.raises(BackendError, match="exceeds shm ring capacity"):
            producer.publish(5, 0, bytes(CAPACITY), timeout=0.1)

    def test_wraparound_across_many_cycles(self, segment):
        """Cursors are monotonic u64s, positions are modulo: thousands
        of frames through a 4 KiB ring must wrap cleanly forever."""
        producer, consumer = rings(segment)
        body = bytes(range(256)) * 3  # 768 bytes, co-prime-ish with 4096
        for index in range(2000):
            producer.publish(6, index, body, timeout=1.0)
            op, corr, view = read_frame(consumer)
            assert (op, corr) == (6, index)
            assert bytes(view) == body
        assert producer._tail == 2000 * (FRAME_OVERHEAD + len(body))

    def test_scattered_parts_concatenate(self, segment):
        producer, consumer = rings(segment)
        parts = (b"alpha", bytearray(b"beta"), memoryview(b"gamma"))
        producer.publish(7, 42, *parts, timeout=1.0)
        _op, _corr, view = read_frame(consumer)
        assert bytes(view) == b"alphabetagamma"

    def test_both_directions_are_independent(self, segment):
        h2t_w, h2t_r = _host_to_target_ring(segment), _host_to_target_ring(segment)
        t2h_w, t2h_r = _target_to_host_ring(segment), _target_to_host_ring(segment)
        h2t_w.publish(1, 1, b"request", timeout=1.0)
        t2h_w.publish(2, 1, b"reply", timeout=1.0)
        assert bytes(read_frame(h2t_r)[2]) == b"request"
        assert bytes(read_frame(t2h_r)[2]) == b"reply"
        assert drained(h2t_r) and drained(t2h_r)

    @given(messages=st.lists(payloads, min_size=1, max_size=12),
           lead=st.integers(min_value=0, max_value=CAPACITY))
    @settings(max_examples=40, deadline=None)
    def test_a_burst_written_whole_is_taken_frame_by_frame(self, messages, lead):
        """Frames framed already (the replies a target held) go in with
        one tail store, from any ring position, and come out one take
        each, every take but the last saying another frame is there."""
        seg = ShmSegment.create(CAPACITY)
        try:
            producer, consumer = rings(seg)
            if lead >= FRAME_OVERHEAD:  # move the cursors to ``lead``
                producer.publish(0, 0, bytes(lead - FRAME_OVERHEAD))
                consumer.take(0)
            burst, taken = [], []
            for index, body in enumerate(messages):
                if sum(map(len, burst)) + FRAME_OVERHEAD + len(body) > CAPACITY:
                    break
                burst += frame(8, index, body)
            producer.write(*sized(burst), timeout=1.0)
            while consumer.readable():
                op, corr, body, more = consumer.take(0)
                taken.append((corr, bytes(body), more))
            count = len(taken)
            assert taken == [(index, messages[index], index < count - 1)
                             for index in range(count)]
            assert count and drained(consumer)
        finally:
            seg.close()
            seg.unlink()
