"""Active-message wire format.

Fixed little-endian header followed by the payload. Three header
versions are in service:

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
    48      1     trace flags (bit 0 always set, ignored on receipt)
    49      ...   payload

Version 3 (61 bytes) is the reply to a version-2 INVOKE: a RESULT or
ERROR header that appends the executing target's share of the offload
to the version-2 fields — a duration, so it needs no clock offset::

    49      4     target pid (the process that executed the message)
    53      8     execute ns (decode + run + encode, on the target's clock)
    61      ...   payload

:func:`build_message` emits version 1 whenever no trace context is given
— untraced messages pay zero header growth — and version 2 only when a
trace rides along; the target answers a version-2 INVOKE under version 3
(:func:`pack_reply_header`). :func:`parse_message` accepts all three, so
a peer that runs with telemetry off interoperates in both directions.

The header is what the paper's protocols move through message buffers;
the handler key field is the "globally valid handler key" of Fig. 6.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple

from repro.errors import SerializationError
from repro.ham import serialization

__all__ = [
    "HEADER_SIZE",
    "HEADER_SIZE_V2",
    "HEADER_SIZE_V3",
    "MAGIC",
    "MSG_ERROR",
    "MSG_INVOKE",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MessageHeader",
    "build_message",
    "compile_invoke",
    "pack_header",
    "pack_reply_header",
    "pack_scalar_result",
    "parse_message",
    "read_execute_block",
    "read_scalar_result",
    "read_scalar_result_v3",
    "split_message",
    "trace_fields",
]

MAGIC = b"HM"
_VERSION_1 = 1
_VERSION_2 = 2
_VERSION_3 = 3
_HEADER_V1 = struct.Struct("<2sBBQQI")
_HEADER_V2 = struct.Struct("<2sBBQQI16sQB")
#: Version 3 after the magic: version, kind, a zero handler key, message
#: id, payload length, the version-2 trace fields, pid and execute ns.
_HEADER_V3 = struct.Struct("<2sBBQQI16sQBIQ")
#: The block version 3 appends: target pid, execute ns.
_EXECUTE_BLOCK = struct.Struct("<IQ")
HEADER_SIZE = _HEADER_V1.size
HEADER_SIZE_V2 = _HEADER_V2.size
HEADER_SIZE_V3 = _HEADER_V3.size

MSG_INVOKE = 1
MSG_RESULT = 2
MSG_ERROR = 3
MSG_SHUTDOWN = 4

_KINDS = {MSG_INVOKE, MSG_RESULT, MSG_ERROR, MSG_SHUTDOWN}
_REPLY_KINDS = {MSG_RESULT, MSG_ERROR}

#: What an INVOKE encoder fixes: magic, version, kind and handler key.
_INVOKE_HEAD = struct.Struct("<2sBBQ")


def _scalar_results(version: int, trace_format: str) -> dict[type, tuple]:
    """A RESULT of one scalar in one ``struct``, per exact type: magic,
    version and kind (the ``head``), a zero handler key, message id,
    payload length, the version-3 trace fields and execute block, the
    payload's code and value. Exact type -> (struct, head, code, payload
    length)."""
    head = MAGIC + bytes((version, MSG_RESULT))
    return {
        cls: (struct.Struct(f"<4s8xQI{trace_format}c{field}"), head, code,
              1 + struct.calcsize("<" + field))
        for cls, (code, field) in serialization.SCALARS.items()
    }


_SCALAR_RESULTS_V1 = _scalar_results(_VERSION_1, "")
_SCALAR_RESULTS_V3 = _scalar_results(_VERSION_3, "16sQBIQ")


def _by_code(results: dict[type, tuple]) -> tuple:
    """Payload code (the int a buffer indexes to) -> (RESULT struct,
    payload length), ``None`` for a code that is no scalar's: read by
    indexing, no lookup call."""
    table: list = [None] * 256
    for result, _head, code, payload_len in results.values():
        table[code[0]] = (result, payload_len)
    return tuple(table)


_SCALAR_RESULT_HEAD = MAGIC + bytes((_VERSION_1, MSG_RESULT))
_SCALAR_RESULT_HEAD_V3 = MAGIC + bytes((_VERSION_3, MSG_RESULT))
_SCALAR_RESULT_OF_CODE = _by_code(_SCALAR_RESULTS_V1)
_SCALAR_RESULT_OF_CODE_V3 = _by_code(_SCALAR_RESULTS_V3)


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


def trace_fields(
    trace_id: int, parent_span_id: int, trace_flags: int
) -> tuple[bytes, int, int]:
    """The version-2 header's trace fields, validated, as packed."""
    if not 0 < trace_id < 1 << 128:
        raise SerializationError(f"trace id must be a 128-bit int, got {trace_id:#x}")
    if not 0 <= parent_span_id < 1 << 64:
        raise SerializationError(
            f"parent span id must fit in 64 bits, got {parent_span_id:#x}"
        )
    return trace_id.to_bytes(16, "big"), parent_span_id, trace_flags & 0xFF


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
    return _HEADER_V2.pack(
        MAGIC, _VERSION_2, kind, handler_key, msg_id, payload_len,
        *trace_fields(trace_id, parent_span_id, trace_flags),
    )


def pack_reply_header(
    kind: int, msg_id: int, payload_len: int, block: tuple
) -> bytes:
    """The version-3 header of a RESULT or ERROR: ``block`` is the
    INVOKE's :func:`trace_fields` plus the target pid and execute ns."""
    return _HEADER_V3.pack(MAGIC, _VERSION_3, kind, 0, msg_id, payload_len, *block)


def compile_invoke(
    handler_key: int, types: tuple, names: tuple, traced: bool
) -> Callable[..., list]:
    """The INVOKE encoder of one message type and argument signature.

    ``encode(msg_id, values, trace=())`` returns the message as buffers,
    byte for byte :func:`build_message` of ``MSG_INVOKE`` around
    :func:`~repro.ham.serialization.encode_args`: one ``pack`` writes
    the header (its version-2 trace fields, :func:`trace_fields`, when
    ``traced``), the signature and every fixed field; arrays, strings
    and containers follow as their own buffers. A value whose ``i``
    field cannot hold it raises :class:`struct.error`.
    """
    signature, fields, steps = serialization.args_layout(types, names)
    version, trace_format, header = (
        (_VERSION_2, "16sQB", HEADER_SIZE_V2) if traced
        else (_VERSION_1, "", HEADER_SIZE)
    )
    head = _INVOKE_HEAD.pack(MAGIC, version, MSG_INVOKE, handler_key)
    block = struct.Struct(f"<{len(head)}sQI{trace_format}{len(signature)}s{fields}")
    pack = block.pack
    fixed_len = block.size - header

    if steps is None:
        def encode_scalars(msg_id: int, values: tuple, trace: tuple = ()) -> list:
            return [pack(head, msg_id, fixed_len, *trace, signature, *values)]
        return encode_scalars

    encode_parts = serialization.encode_parts

    def encode(msg_id: int, values: tuple, trace: tuple = ()) -> list:
        fixed, parts, nbytes = encode_parts(steps, values)
        parts[0] = pack(head, msg_id, fixed_len + nbytes, *trace, signature, *fixed)
        return parts
    return encode


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
    elif version == _VERSION_2 or version == _VERSION_3:
        start = HEADER_SIZE_V2 if version == _VERSION_2 else HEADER_SIZE_V3
        if size < start:
            raise SerializationError(
                f"message truncated: {size} bytes < v{version} header size {start}"
            )
        if version == _VERSION_3 and kind not in _REPLY_KINDS:
            raise SerializationError(f"a v3 header on a message of kind {kind}")
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


def pack_scalar_result(msg_id: int, value: Any, block: tuple = ()) -> bytes | None:
    """The RESULT of ``value`` in one ``pack`` when it is one scalar: its
    :func:`serialize` bytes behind a version-1 header, or behind the
    version-3 one of :func:`pack_reply_header` if ``block`` is given.
    ``None`` for any other value or an int beyond 64 bits."""
    scalar = (_SCALAR_RESULTS_V3 if block else _SCALAR_RESULTS_V1).get(value.__class__)
    if scalar is None:
        return None
    result, head, code, payload_len = scalar
    try:
        if block:
            return result.pack(head, msg_id, payload_len, *block, code, value)
        return result.pack(head, msg_id, payload_len, code, value)
    except struct.error:
        return None


def read_scalar_result(data: Any) -> tuple[int, Any] | None:
    """``(msg_id, value)`` of a version-1 RESULT of one scalar, read in
    one ``unpack_from``; ``None`` for any other message, which
    :func:`split_message` then reads. Magic, version, kind and payload
    length are checked as :func:`split_message` checks them."""
    try:
        scalar = _SCALAR_RESULT_OF_CODE[data[HEADER_SIZE]]
        if scalar is None:
            return None
        head, msg_id, payload_len, _code, value = scalar[0].unpack_from(data)
    except (IndexError, struct.error):  # shorter than a scalar RESULT
        return None
    if head != _SCALAR_RESULT_HEAD or payload_len != scalar[1]:
        return None
    return msg_id, value


def read_scalar_result_v3(data: Any) -> tuple[int, Any, int, int] | None:
    """``(msg_id, value, target_pid, execute_ns)`` of a version-3 RESULT
    of one scalar — the reply to a traced INVOKE — read in one
    ``unpack_from``; ``None`` for any other message, which
    :func:`split_message` then reads. Magic, version, kind and payload
    length are checked as :func:`split_message` checks them."""
    try:
        scalar = _SCALAR_RESULT_OF_CODE_V3[data[HEADER_SIZE_V3]]
        if scalar is None:
            return None
        (head, msg_id, payload_len, _trace_id, _parent, _flags, pid,
         execute_ns, _code, value) = scalar[0].unpack_from(data)
    except (IndexError, struct.error):  # shorter than a scalar RESULT
        return None
    if head != _SCALAR_RESULT_HEAD_V3 or payload_len != scalar[1]:
        return None
    return msg_id, value, pid, execute_ns


def read_execute_block(data: Any) -> tuple[int, int] | None:
    """``(target pid, execute ns)`` of a reply :func:`split_message` has
    validated: its version-3 block, ``None`` under another version."""
    if data[2] != _VERSION_3:
        return None
    return _EXECUTE_BLOCK.unpack_from(data, HEADER_SIZE_V2)


def parse_message(data) -> tuple[MessageHeader, bytes]:
    """Split wire bytes into ``(header, payload)``.

    Accepts every header version: a version-1 message (no trace context,
    e.g. from a sender running with telemetry off) parses with zeroed
    trace fields, a version-3 reply without its execute block
    (:func:`read_execute_block`). ``data`` may be any
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
