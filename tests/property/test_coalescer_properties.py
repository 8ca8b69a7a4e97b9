"""Property-based tests of the frame coalescer.

The coalescer must be a reordering-free, loss-free buffer: whatever
frame bytes go in, exactly those bytes come out the transmit side, in
order, no matter which mix of flush triggers fires (size budget, frame
count, idle fast-path, explicit flush). The server
decodes batches with the ordinary ``length|op|corr`` frame grammar one
frame at a time, so byte identity of the concatenated stream *is* the
wire-compatibility property — a batched client is indistinguishable
from an unbatched one on the receive side.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.base import CoalescePolicy, FrameCoalescer
from repro.errors import BackendError

_LEN = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_FRAME_META = 9  # op:u8 | corr:u64, mirrored from the tcp framing


class Wire:
    """Collects transmitted batches like a socket would see them."""

    def __init__(self):
        self.batches: list[bytes] = []

    def transmit(self, parts):
        self.batches.append(b"".join(bytes(part) for part in parts))

    @property
    def stream(self) -> bytes:
        return b"".join(self.batches)


def encode_frame(op: int, corr: int, body: bytes) -> bytes:
    return _LEN.pack(_FRAME_META + len(body)) + bytes([op]) + _U64.pack(corr) + body


def decode_stream(stream: bytes) -> list[tuple[int, int, bytes]]:
    """The server's frame-at-a-time decode loop, distilled."""
    frames = []
    offset = 0
    while offset < len(stream):
        (length,) = _LEN.unpack_from(stream, offset)
        assert length >= _FRAME_META, "frame shorter than its meta"
        start = offset + _LEN.size
        payload = stream[start : start + length]
        assert len(payload) == length, "truncated frame in stream"
        frames.append((payload[0], _U64.unpack_from(payload, 1)[0], payload[9:]))
        offset = start + length
    return frames


# Event stream: buffer a frame (with the in-flight depth observed at
# that instant), or flush explicitly.
events = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.binary(max_size=300), st.integers(0, 40)),
        st.just(("flush",)),
    ),
    max_size=60,
)

policies = st.builds(
    CoalescePolicy,
    max_bytes=st.integers(min_value=64, max_value=2048),
    max_frames=st.integers(min_value=1, max_value=12),
    idle_depth=st.integers(min_value=0, max_value=4),
)


@settings(max_examples=200, deadline=None)
@given(events=events, policy=policies)
def test_stream_is_byte_identical_to_unbatched(events, policy):
    """Transmitted stream + residue == input frames, byte for byte."""
    wire = Wire()
    depth = {"value": 0}
    coalescer = FrameCoalescer(
        transmit=wire.transmit,
        policy=policy,
        depth=lambda: depth["value"],
    )
    expected = bytearray()
    corr = 0
    for event in events:
        if event[0] == "add":
            _, body, observed_depth = event
            depth["value"] = observed_depth
            corr += 1
            frame = encode_frame(0x01, corr, body)
            expected += frame
            coalescer.add([frame], len(frame))
            frames, nbytes = coalescer.pending()
            # A tripped budget never leaves a full batch buffered.
            assert frames < policy.max_frames
            assert nbytes < policy.max_bytes
        else:
            coalescer.flush()
    residue_frames, _ = coalescer.pending()
    flushed = coalescer.flush("explicit")
    assert flushed == residue_frames
    assert wire.stream == bytes(expected)
    # The receive side sees whole frames with ids in submission order.
    decoded = decode_stream(wire.stream)
    assert [c for _, c, _ in decoded] == list(range(1, corr + 1))


@settings(max_examples=100, deadline=None)
@given(bodies=st.lists(st.binary(max_size=100), min_size=1, max_size=20))
def test_discard_drops_exactly_the_buffer(bodies):
    """Discard reports precisely what was buffered; nothing transmits."""
    wire = Wire()
    coalescer = FrameCoalescer(
        transmit=wire.transmit,
        policy=CoalescePolicy(max_bytes=1 << 20, max_frames=10_000),
        depth=lambda: 100,
    )
    total = 0
    for corr, body in enumerate(bodies, start=1):
        frame = encode_frame(0x01, corr, body)
        coalescer.add([frame], len(frame))
        total += len(frame)
    frames, nbytes = coalescer.discard()
    assert (frames, nbytes) == (len(bodies), total)
    assert wire.stream == b""
    assert coalescer.pending() == (0, 0)
    # Nothing of the dropped batch is left to send.
    assert coalescer.flush() == 0
    assert wire.stream == b""


def test_policy_rejects_nonsense():
    with pytest.raises(BackendError):
        CoalescePolicy(max_bytes=0)
    with pytest.raises(BackendError):
        CoalescePolicy(max_frames=0)
