"""Active-message wire format.

Fixed little-endian header followed by the payload. Two header versions
are in service:

Version 1 (24 bytes, the original layout)::

    offset  size  field
    0       2     magic 0x48 0x4D ("HM")
    2       1     version (1)
    3       1     kind (INVOKE / RESULT / ERROR / SHUTDOWN)
    4       8     handler key (INVOKE) or 0
    12      8     message id (matches results to futures)
    20      4     payload length
    24      ...   payload

Version 2 (49 bytes) appends the distributed trace context — the header
is the one structure that always crosses the host/target boundary, which
makes it the natural carrier (HAM treats the header the same way)::

    24      16    trace id (128-bit, big-endian; zero = no trace)
    40      8     parent span id (the sender span that built the message)
    48      1     trace flags (bit 0: sampled)
    49      ...   payload

:func:`build_message` emits version 1 whenever no trace context is given
— untraced messages pay zero header growth — and version 2 only when a
trace rides along. :func:`parse_message` accepts both, so a peer that
predates tracing (or runs with telemetry off) interoperates in both
directions.

The header is what the paper's protocols move through message buffers;
the handler key field is the "globally valid handler key" of Fig. 6.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import SerializationError

__all__ = [
    "HEADER_SIZE",
    "HEADER_SIZE_V2",
    "MAGIC",
    "MSG_ERROR",
    "MSG_INVOKE",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MessageHeader",
    "build_message",
    "build_message_parts",
    "pack_header",
    "parse_message",
    "peek_trace",
    "peek_trace_flags",
    "split_message",
]

MAGIC = b"HM"
_VERSION_1 = 1
_VERSION_2 = 2
_HEADER_V1 = struct.Struct("<2sBBQQI")
_HEADER_V2 = struct.Struct("<2sBBQQI16sQB")
HEADER_SIZE = _HEADER_V1.size
HEADER_SIZE_V2 = _HEADER_V2.size

MSG_INVOKE = 1
MSG_RESULT = 2
MSG_ERROR = 3
MSG_SHUTDOWN = 4

_KINDS = {MSG_INVOKE, MSG_RESULT, MSG_ERROR, MSG_SHUTDOWN}


class MessageHeader(NamedTuple):
    """Parsed header of one active message (immutable).

    ``trace_id`` / ``parent_span_id`` / ``trace_flags`` are zero for
    version-1 messages (no trace context on the wire).
    """

    kind: int
    handler_key: int
    msg_id: int
    payload_len: int
    trace_id: int = 0
    parent_span_id: int = 0
    trace_flags: int = 0


def pack_header(
    kind: int,
    handler_key: int,
    msg_id: int,
    payload_len: int,
    trace_id: int = 0,
    parent_span_id: int = 0,
    trace_flags: int = 0,
) -> bytes:
    """The header of one message: version 1, or version 2 when a
    non-zero ``trace_id`` rides along."""
    if kind not in _KINDS:
        raise SerializationError(f"invalid message kind {kind}")
    if handler_key < 0 or msg_id < 0:
        raise SerializationError("handler key and message id must be non-negative")
    if trace_id == 0:
        return _HEADER_V1.pack(
            MAGIC, _VERSION_1, kind, handler_key, msg_id, payload_len
        )
    if not 0 < trace_id < 1 << 128:
        raise SerializationError(f"trace id must be a 128-bit int, got {trace_id:#x}")
    if not 0 <= parent_span_id < 1 << 64:
        raise SerializationError(
            f"parent span id must fit in 64 bits, got {parent_span_id:#x}"
        )
    return _HEADER_V2.pack(
        MAGIC,
        _VERSION_2,
        kind,
        handler_key,
        msg_id,
        payload_len,
        trace_id.to_bytes(16, "big"),
        parent_span_id,
        trace_flags & 0xFF,
    )


def build_message_parts(
    kind: int,
    handler_key: int,
    msg_id: int,
    payload_parts: list,
    *,
    trace_id: int = 0,
    parent_span_id: int = 0,
    trace_flags: int = 0,
) -> list:
    """Assemble one wire message as ``[header, *payload_parts]``.

    The scatter-gather form of :func:`build_message`: the payload stays
    a list of buffers (``bytes`` / ``memoryview``), so a transport with
    vectored I/O (``sendmsg``) ships large array data straight from its
    owner's storage without concatenating. ``payload_len`` in the header
    is the sum of the part lengths.
    """
    return [
        pack_header(kind, handler_key, msg_id, sum(map(len, payload_parts)),
                    trace_id, parent_span_id, trace_flags),
        *payload_parts,
    ]


def build_message(
    kind: int,
    handler_key: int,
    msg_id: int,
    payload: bytes,
    *,
    trace_id: int = 0,
    parent_span_id: int = 0,
    trace_flags: int = 0,
) -> bytes:
    """Assemble one wire message.

    A non-zero ``trace_id`` selects the version-2 header and stamps the
    trace context fields; otherwise the compact version-1 header is
    emitted unchanged from the original format.
    """
    return pack_header(kind, handler_key, msg_id, len(payload),
                       trace_id, parent_span_id, trace_flags) + payload


def peek_trace(data) -> tuple[int, int, int] | None:
    """Trace fields of a message without parsing the payload.

    Returns ``(trace_id, parent_span_id, trace_flags)`` for a version-2
    message; ``None`` for version-1 messages (no trace context on the
    wire) and for anything too short or foreign to carry the v2 header.
    Peeking never raises, so transports can consult the sampled bit
    before deciding whether to open server-side spans for a message they
    have not validated yet.
    """
    if len(data) < HEADER_SIZE_V2:
        return None
    magic, version = _HEADER_V1.unpack_from(data)[:2]
    if magic != MAGIC or version != _VERSION_2:
        return None
    trace_bytes, parent_span_id, trace_flags = _HEADER_V2.unpack_from(data)[6:]
    return int.from_bytes(trace_bytes, "big"), parent_span_id, trace_flags


def peek_trace_flags(data) -> int | None:
    """Just the trace flag byte of :func:`peek_trace` (``None`` for v1).

    Read in place — transports ask this of every traced message, and
    mostly to learn that it is sampled.
    """
    if (len(data) < HEADER_SIZE_V2 or data[2] != _VERSION_2
            or data[:2] != MAGIC):
        return None
    return data[HEADER_SIZE_V2 - 1]


def split_message(data) -> tuple[int, int, int, int, int, int, int, int]:
    """Validate a message's header and locate its payload in place.

    Returns ``(kind, handler_key, msg_id, start, end, trace_id,
    parent_span_id, trace_flags)`` with the payload at
    ``data[start:end]`` — :func:`parse_message` without a header object
    or a payload slice, for the per-offload path. Raises as
    :func:`parse_message` does.
    """
    size = len(data)
    if size < HEADER_SIZE:
        raise SerializationError(
            f"message truncated: {size} bytes < header size {HEADER_SIZE}"
        )
    magic, version, kind, handler_key, msg_id, payload_len = _HEADER_V1.unpack_from(data)
    if magic != MAGIC:
        raise SerializationError(f"bad message magic {magic!r}")
    trace_id = 0
    parent_span_id = 0
    trace_flags = 0
    if version == _VERSION_1:
        start = HEADER_SIZE
    elif version == _VERSION_2:
        start = HEADER_SIZE_V2
        if size < start:
            raise SerializationError(
                f"message truncated: {size} bytes < v2 header size {start}"
            )
        (_m, _v, _k, _hk, _mid, _pl,
         trace_bytes, parent_span_id, trace_flags) = _HEADER_V2.unpack_from(data)
        trace_id = int.from_bytes(trace_bytes, "big")
    else:
        raise SerializationError(f"unsupported message version {version}")
    if kind not in _KINDS:
        raise SerializationError(f"invalid message kind {kind}")
    end = start + payload_len
    if size < end:
        raise SerializationError(
            f"message truncated: payload {size - start} bytes < declared {payload_len}"
        )
    return (kind, handler_key, msg_id, start, end,
            trace_id, parent_span_id, trace_flags)


def parse_message(data) -> tuple[MessageHeader, bytes]:
    """Split wire bytes into ``(header, payload)``.

    Accepts both header versions: a version-1 message (no trace context,
    e.g. from a sender running with telemetry off or a pre-tracing
    build) parses with zeroed trace fields. ``data`` may be any
    bytes-like object; a ``memoryview`` input yields the payload as a
    zero-copy view.

    Raises
    ------
    SerializationError
        On bad magic, unsupported version, truncation or trailing bytes.
    """
    (kind, handler_key, msg_id, start, end,
     trace_id, parent_span_id, trace_flags) = split_message(data)
    return MessageHeader(
        kind, handler_key, msg_id, end - start,
        trace_id, parent_span_id, trace_flags,
    ), data[start:end]
