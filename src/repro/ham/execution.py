"""The generic message handler — receive side of Fig. 6.

``execute_message`` is what every HAM-Offload target runs when a message
buffer is handed to it: parse the header, translate the globally valid
handler key into the local handler through the image's O(1) table, decode
the typed arguments ("the way for the typeless bytes of the receive
buffer back into the typesafe world", paper Sec. III-E), resolve
target-local argument kinds (buffer pointers), call the function, and
build the result (or error) message.
"""

from __future__ import annotations

import struct
import traceback
from time import perf_counter_ns
from typing import Any, Callable

from repro.errors import RemoteExecutionError, SerializationError
from repro.ham.functor import Functor
from repro.ham.message import (
    MSG_ERROR,
    MSG_INVOKE,
    MSG_RESULT,
    MSG_SHUTDOWN,
    build_message,
    pack_header,
    pack_reply_header,
    pack_scalar_result,
    read_execute_block,
    read_scalar_result,
    split_message,
    trace_fields,
)
from repro.ham.registry import ProcessImage
from repro.ham.serialization import (
    SCALARS,
    decode_args,
    deserialize,
    serialize,
    wide_types,
)
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext
from repro.telemetry.recorder import DESERIALIZE, SERIALIZE, OffloadTrace

__all__ = [
    "build_invoke",
    "build_invoke_parts",
    "execute_message",
    "failure_info",
    "remote_error",
    "unpack_result",
]

#: Resolver hook: maps wire-level arguments (e.g. buffer_ptr) to
#: target-local values (e.g. memory views). Identity by default.
Resolver = Callable[[Any], Any]


def sized_invoke_parts(
    image: ProcessImage, functor: Functor, msg_id: int
) -> tuple[list, OffloadTrace | None]:
    """:func:`build_invoke_parts` plus the record of the offload it
    serializes: the :class:`~repro.telemetry.recorder.OffloadTrace` the
    runtime began on this thread, taken (one serialize per offload) and
    stamped with phase ``offload.serialize`` and the message's size.
    ``None`` while nothing records, or outside a runtime's offload."""
    recorder = telemetry.get()
    trace = None if recorder is None else recorder._thread.stack.offload
    if trace is None:
        # No phase to stamp; a trace active anyway still rides the v2
        # header, under the context's own parent.
        ctx = trace_context.current()
        parent = 0 if ctx is None else ctx.span_id
        return _invoke_parts(image, functor, msg_id, ctx, parent), None
    stack = trace.stack
    stack.offload = None
    ctx = trace.ctx  # the runtime's, active around this call
    # The serialize phase is the header's remote parent.
    parts = trace.run(SERIALIZE, stack, _invoke_parts, image, functor, msg_id,
                      ctx, 0 if ctx is None else trace.span_id + SERIALIZE)
    trace.nbytes = sum(map(len, parts))
    return parts, trace


def _invoke_parts(
    image: ProcessImage, functor: Functor, msg_id: int,
    ctx: TraceContext | None, parent_span_id: int,
) -> list:
    """The INVOKE message of ``functor`` as buffers, through the encoder
    ``image`` compiled for its message type and argument types: a v2
    header naming ``parent_span_id`` as the remote parent while ``ctx``
    is active."""
    if functor.__class__ is not Functor:  # it encodes its arguments itself
        return [build_message(
            MSG_INVOKE, image.key_for(functor.type_name), msg_id,
            functor.serialize_args(), trace_id=0 if ctx is None else ctx.trace_id,
            parent_span_id=parent_span_id, trace_flags=0 if ctx is None else ctx.flags,
        )]
    trace = () if ctx is None else trace_fields(ctx.trace_id, parent_span_id, ctx.flags)
    traced = ctx is not None
    kwargs = functor.kwargs
    if kwargs:
        values = functor.args + tuple(value for _name, value in kwargs)
        names = tuple(name for name, _value in kwargs)
    else:
        values, names = functor.args, ()
    types = tuple(map(type, values))
    # Warm, one lookup; cold, the image compiles the encoder.
    encoder = image.invoke_encoders.get((functor.type_name, types, names, traced))
    if encoder is None:
        encoder = image.invoke_encoder(functor.type_name, types, names, traced)
    try:
        return encoder(msg_id, values, trace)
    except struct.error as exc:
        # Only an ``i`` field can refuse an argument: the same layout,
        # with the wide ints under their own code.
        wide = wide_types(types, values)
        if wide == types:  # none: the message id or length is out of range
            raise SerializationError(f"INVOKE {msg_id} does not fit the wire: {exc}") from None
        return image.invoke_encoder(functor.type_name, wide, names, traced)(
            msg_id, values, trace)


def build_invoke_parts(
    image: ProcessImage, functor: Functor, msg_id: int
) -> list:
    """Serialize a functor into INVOKE message buffers (send side).

    The scatter-gather form of :func:`build_invoke`: returns
    ``[header, *payload_parts]`` where large array arguments remain
    :class:`memoryview` objects over their own storage, so a vectored
    transport ships them without ``tobytes()`` copies.

    Telemetry phase ``offload.serialize`` (stamped by
    :func:`sized_invoke_parts`, which backends call to keep the offload's
    record): the cost of turning the typed functor into wire bytes, on
    whichever backend posts it.

    When a distributed trace is active (the runtime opens one per
    offload), its context is stamped into the version-2 header with the
    ``offload.serialize`` phase as the wire parent; the target's
    version-3 reply brings its execute time back to the offload's record
    (:func:`execute_message`).
    """
    return sized_invoke_parts(image, functor, msg_id)[0]


def build_invoke(image: ProcessImage, functor: Functor, msg_id: int) -> bytes:
    """Serialize a functor into one contiguous INVOKE message.

    The joined form of :func:`build_invoke_parts`, for a caller that
    places messages into fixed slots itself.
    """
    return b"".join(sized_invoke_parts(image, functor, msg_id)[0])


def execute_message(
    image: ProcessImage, data: bytes, resolver: Resolver | None = None
) -> tuple[bytes, bool]:
    """Execute one received message; returns ``(reply_bytes, keep_running)``.

    ``keep_running`` is ``False`` for a SHUTDOWN message (its reply is an
    empty RESULT acknowledging termination).

    VE-side failures never crash the message loop: they are captured into
    an ERROR reply carrying the remote traceback.

    Telemetry phase ``offload.execute``: a traced INVOKE (a version-2
    header, non-zero trace id) is answered under a version-3 header that
    carries this process's pid and the nanoseconds from the header's
    decode to the reply's encode — argument decode, handler run, result
    encode. The host stamps them into the offload's record
    (:func:`unpack_result`), so no target records anything; an
    untraced INVOKE reads no clock and gets a version-1 reply.
    """
    (kind, handler_key, msg_id, start, end,
     trace_id, parent_span_id, trace_flags) = split_message(data)
    if kind == MSG_SHUTDOWN:
        return build_message(MSG_RESULT, 0, msg_id, serialize(None)), False
    if kind != MSG_INVOKE:
        raise SerializationError(f"target received non-invoke message kind {kind}")
    began = perf_counter_ns() if trace_id else 0
    try:
        entry = image.entry_for_key(handler_key)
        args, kwargs = decode_args(data, start, end, resolver)
        value = entry.handler(*args, **kwargs)
        if value.__class__ in SCALARS:  # encoded and packed in one step
            reply = pack_scalar_result(msg_id, value, _execute_block(
                trace_id, parent_span_id, trace_flags, began) if trace_id else ())
            if reply is not None:
                return reply, True
        reply_kind = MSG_RESULT
        payload = serialize(value)
    except Exception as exc:  # noqa: BLE001 - shipped back to the host
        reply_kind = MSG_ERROR
        payload = serialize(failure_info(exc))
    if not trace_id:
        return pack_header(reply_kind, 0, msg_id, len(payload)) + payload, True
    return pack_reply_header(reply_kind, msg_id, len(payload), _execute_block(
        trace_id, parent_span_id, trace_flags, began)) + payload, True


def _execute_block(
    trace_id: int, parent_span_id: int, trace_flags: int, began: int
) -> tuple:
    """A version-3 reply's fields past the version-1 ones: the INVOKE's
    trace fields, this process's pid and the ns since ``began``."""
    return (*trace_fields(trace_id, parent_span_id, trace_flags),
            telemetry._PID, perf_counter_ns() - began)


def failure_info(exc: BaseException) -> dict[str, str]:
    """The ``{type, message, traceback}`` dict a failure travels as (an
    ERROR reply's payload, a transport's failure frame); called while
    ``exc`` is being handled, whose traceback it formats."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def remote_error(info: Any) -> RemoteExecutionError:
    """The exception a decoded ``{type, message, traceback}`` dict stands
    for (an ERROR reply's payload, a transport's failure frame)."""
    if not isinstance(info, dict):
        raise SerializationError(
            f"malformed error reply: {type(info).__name__} body"
        )
    return RemoteExecutionError(
        f"remote {info.get('type')}: {info.get('message')}",
        remote_traceback=str(info.get("traceback", "")),
    )


def unpack_result(
    data: bytes, trace: OffloadTrace | None = None
) -> tuple[int, Any]:
    """Decode a RESULT/ERROR message on the host; returns ``(msg_id, value)``.

    Telemetry phase ``offload.deserialize``, stamped into ``trace`` (the
    offload's record, when it is traced) on the thread that waited,
    together with phase ``offload.execute`` as the target reported it
    (the version-3 header's pid and execute ns, and an ERROR's remote
    exception type).

    Raises
    ------
    RemoteExecutionError
        If the message is an ERROR reply — the remote traceback is
        attached.
    SerializationError
        If the message is not a result at all.
    """
    if trace is None:
        return _result_of(data)
    trace.result_bytes = len(data)
    return trace.run(DESERIALIZE, trace.wait_stack, _result_of, data, trace)


def _result_of(data: bytes, trace: OffloadTrace | None = None) -> tuple[int, Any]:
    """:func:`unpack_result`'s decode."""
    scalar = read_scalar_result(data)
    if scalar is not None:
        return scalar
    (kind, _key, msg_id, start, end,
     _trace_id, _parent, _flags) = split_message(data)
    if trace is not None:
        block = read_execute_block(data)
        if block is not None:
            trace.target_pid, trace.execute_ns = block
    if kind == MSG_RESULT:
        return msg_id, deserialize(data, start, end)
    if kind != MSG_ERROR:
        raise SerializationError(f"expected a result message, got kind {kind}")
    error = remote_error(info := deserialize(data, start, end))
    if trace is not None:
        trace.execute_error = str(info.get("type"))
    raise error
