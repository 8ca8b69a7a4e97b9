"""One decoder, two byte sources: properties of ``FrameParser``.

The same random frame sequence goes through a ``socket.socketpair()``
(written in pieces split at arbitrary points) and through a small shm
ring (each frame written whole, from parts split at arbitrary points)
read by a consumer thread. Bodies reach 200 KiB, so some frames take the
parser's own-buffer path. Both sources must hand back the same frames
in order; a stream cut mid-frame must end in an EOF error naming the
partial bytes; a length outside what the source can carry must raise
``BackendError`` and nothing else.
"""

import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends._server import _RECV_CHUNK, FrameParser, _eof_error
from repro.backends.shm import ShmSegment, _host_to_target_ring
from repro.backends.tcp import FRAME_LIMIT
from repro.errors import BackendError

from tests.backends.wire import frame, sized

WAIT = 10.0
#: A ring four times smaller than the default, still above the largest
#: frame below: ring writes are whole frames.
CAPACITY = 1 << 18
MAX_BODY = 200 * 1024

sizes = st.integers(0, 64) | st.integers(0, 4096) | st.integers(
    _RECV_CHUNK - 64, MAX_BODY
)
frames = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, 2**64 - 1), sizes),
    min_size=1, max_size=8,
)
cuts = st.lists(st.integers(1, 3 * MAX_BODY), max_size=12)


def _bodies(spec):
    """``(op, corr, body)`` per drawn ``(op, corr, size)``."""
    return [(op, corr, random.Random(i).randbytes(size))
            for i, (op, corr, size) in enumerate(spec)]


def _pieces(data, cut_at):
    """``data`` split at the drawn positions (each taken modulo its length)."""
    points = sorted({cut % len(data) for cut in cut_at if len(data)} | {0, len(data)})
    return [data[a:b] for a, b in zip(points, points[1:])]


def _read_all(parser):
    """Every frame up to EOF, bodies copied out."""
    out = []
    while True:
        got = parser.next_frame()
        if got is not None:
            out.append((got[0], got[1], bytes(got[2])))
        elif not parser.fill():
            return out


def _through_socket(stream_pieces):
    """Every frame the parser reads off a socketpair fed ``stream_pieces``;
    returns ``(frames, parser)`` once the writer has closed its end."""
    ours, theirs = socket.socketpair()

    def write():
        with theirs:
            for piece in stream_pieces:
                theirs.sendall(piece)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        parser = FrameParser(ours, FRAME_LIMIT)
        got = _read_all(parser)
    finally:
        writer.join(WAIT)
        ours.close()
    return got, parser


def _through_ring(writes, count):
    """The ``count`` frames (or the error) a consumer thread reads off a
    ring the caller writes ``writes`` (lists of parts) to."""
    segment = ShmSegment.create(CAPACITY)
    try:
        producer = _host_to_target_ring(segment)
        consumer = _host_to_target_ring(segment)
        parser = FrameParser(consumer, CAPACITY)
        got = []

        def read():
            try:
                while len(got) < count:
                    got_frame = parser.next_frame()
                    if got_frame is not None:
                        got.append((got_frame[0], got_frame[1], bytes(got_frame[2])))
                    elif consumer.wait_readable(WAIT):
                        parser.fill()
                    else:
                        return
            except BaseException as exc:  # the caller asserts on it
                got.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        for parts in writes:
            producer.write(*sized(parts), timeout=WAIT)
        reader.join(WAIT)
        assert not reader.is_alive()
        return got
    finally:
        segment.close()
        segment.unlink()


@given(spec=frames, cut_at=cuts)
@settings(max_examples=25, deadline=None)
def test_both_sources_hand_back_the_same_frames_in_order(spec, cut_at):
    sent = _bodies(spec)
    stream = b"".join(b"".join(frame(op, corr, body)) for op, corr, body in sent)
    from_socket, parser = _through_socket(_pieces(stream, cut_at))
    assert from_socket == sent and parser.buffered == 0
    from_ring = _through_ring(
        [frame(op, corr, *_pieces(body, cut_at)) for op, corr, body in sent],
        len(sent),
    )
    assert from_ring == from_socket


@given(spec=frames, cut_at=cuts, keep=st.integers(1, 2**32))
@settings(max_examples=25, deadline=None)
def test_a_stream_cut_mid_frame_names_the_partial_bytes(spec, cut_at, keep):
    sent = _bodies(spec)
    whole = b"".join(b"".join(frame(op, corr, body)) for op, corr, body in sent[:-1])
    last = b"".join(frame(*sent[-1]))
    partial = last[: keep % len(last)] or last[:1]
    got, parser = _through_socket(_pieces(whole + partial, cut_at))
    assert got == sent[:-1]
    message = str(_eof_error(parser, pending=1))
    assert f"mid-frame: {len(partial)} byte(s)" in message
    assert "1 pending operation can no longer be matched" in message


@given(length=st.integers(0, 8), good=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_a_length_below_nine_is_refused_on_both_sources(length, good):
    ahead = [(1, i, b"ok") for i in range(good)]
    stream = b"".join(b"".join(frame(*f)) for f in ahead)
    bad = struct.pack("<I", length) + bytes(12)
    with pytest.raises(BackendError, match="short frame"):
        _through_socket([stream + bad])
    got = _through_ring([[stream + bad]], good + 1)
    assert got[:-1] == ahead and isinstance(got[-1], BackendError)
    assert "short frame" in str(got[-1])


@given(excess=st.integers(1, 2**32 - CAPACITY))
@settings(max_examples=20, deadline=None)
def test_a_length_above_the_ring_limit_is_refused(excess):
    bad = struct.pack("<I", CAPACITY - 4 + excess) + bytes(12)
    (refusal,) = _through_ring([[bad]], 1)
    assert isinstance(refusal, BackendError) and "long frame" in str(refusal)
