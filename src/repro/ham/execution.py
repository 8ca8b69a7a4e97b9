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

import traceback
from typing import Any, Callable

from repro.errors import RemoteExecutionError, SerializationError
from repro.ham.functor import Functor
from repro.ham.message import (
    MSG_ERROR,
    MSG_INVOKE,
    MSG_RESULT,
    MSG_SHUTDOWN,
    build_message,
    build_message_parts,
    pack_header,
    split_message,
)
from repro.ham.registry import ProcessImage
from repro.ham.serialization import decode_args, deserialize, serialize
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import TraceContext

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
) -> tuple[list, int]:
    """:func:`build_invoke_parts` plus the message's size in bytes, which
    only telemetry reads: summed once, here, and 0 while telemetry is off."""
    recorder = telemetry.get()
    if recorder is None:
        # Nothing records, so no span is entered; a trace active anyway
        # still rides the v2 header, under the context's own parent.
        ctx = trace_context.current()
        parent = 0 if ctx is None else ctx.span_id
        return _invoke_parts(image, functor, msg_id, ctx, parent), 0
    with telemetry.span("offload.serialize", functor=functor.type_name) as span:
        ctx = trace_context.current()
        # The serialize span is the causal parent of the remote execution.
        parent = 0 if ctx is None else span.span_id or ctx.span_id
        parts = _invoke_parts(image, functor, msg_id, ctx, parent)
        nbytes = sum(map(len, parts))
        span.set("bytes", nbytes)
    # Per-kernel byte attribution, fed for every traced offload.
    recorder.kernel_bytes[functor.type_name].inc(nbytes)
    return parts, nbytes


def _invoke_parts(
    image: ProcessImage, functor: Functor, msg_id: int,
    ctx: TraceContext | None, parent_span_id: int,
) -> list:
    """The INVOKE message of ``functor`` as buffers: a v2 header naming
    ``parent_span_id`` as the remote parent while ``ctx`` is active."""
    key = image.key_for(functor.type_name)
    if ctx is None:
        return build_message_parts(
            MSG_INVOKE, key, msg_id, functor.serialize_args_parts()
        )
    return build_message_parts(
        MSG_INVOKE, key, msg_id, functor.serialize_args_parts(),
        trace_id=ctx.trace_id, parent_span_id=parent_span_id,
        trace_flags=ctx.flags,
    )


def build_invoke_parts(
    image: ProcessImage, functor: Functor, msg_id: int
) -> list:
    """Serialize a functor into INVOKE message buffers (send side).

    The scatter-gather form of :func:`build_invoke`: returns
    ``[header, *payload_parts]`` where large array arguments remain
    :class:`memoryview` objects over their own storage, so a vectored
    transport ships them without ``tobytes()`` copies.

    Telemetry phase ``offload.serialize``: the cost of turning the typed
    functor into wire bytes, on whichever backend posts it.

    When a distributed trace is active (the runtime opens one per
    offload), its context is stamped into the version-2 header with the
    ``offload.serialize`` span as the wire parent — the target-side
    execution spans re-attach there, forming one causal tree across the
    process boundary.
    """
    return sized_invoke_parts(image, functor, msg_id)[0]


def build_invoke(image: ProcessImage, functor: Functor, msg_id: int) -> bytes:
    """Serialize a functor into one contiguous INVOKE message.

    Backends that place messages into fixed slots (local, sim) use this
    joined form; the TCP backend sends :func:`build_invoke_parts`
    directly through vectored I/O.
    """
    return b"".join(sized_invoke_parts(image, functor, msg_id)[0])


#: :func:`execute_message`'s default ``recorder``: read it there.
_UNREAD: Any = object()


def execute_message(
    image: ProcessImage, data: bytes, resolver: Resolver | None = None, *,
    recorder: Any = _UNREAD,
) -> tuple[bytes, bool]:
    """Execute one received message; returns ``(reply_bytes, keep_running)``.

    ``keep_running`` is ``False`` for a SHUTDOWN message (its reply is an
    empty RESULT acknowledging termination).

    VE-side failures never crash the message loop: they are captured into
    an ERROR reply carrying the remote traceback. ``recorder`` is
    ``telemetry.get()`` where the caller has read it for its own phase
    already; while it is ``None`` (a process that does not record) no
    trace context is built and no span opened.
    """
    (kind, handler_key, msg_id, start, end,
     trace_id, parent_span_id, trace_flags) = split_message(data)
    if kind == MSG_SHUTDOWN:
        return build_message(MSG_RESULT, 0, msg_id, serialize(None)), False
    if kind != MSG_INVOKE:
        raise SerializationError(f"target received non-invoke message kind {kind}")
    if recorder is _UNREAD:
        recorder = telemetry.get()
    if recorder is None:
        # A process that does not record: no context, no span; the
        # reply still carries the sender's trace back.
        return _invoke(image, data, start, end, handler_key, msg_id, resolver,
                      trace_id, parent_span_id, trace_flags, None)
    # Re-enter the sender's distributed trace (version-2 headers carry
    # it; version-1 messages execute untraced, exactly as before): the
    # execute span below records the same trace_id and — when this
    # process's local span stack is empty, i.e. a real remote target —
    # parents itself to the host span named in the header.
    token: Any = None
    if trace_id:
        token = trace_context.enter(TraceContext(trace_id, parent_span_id))
    try:
        # Telemetry phase ``offload.execute``: argument decode + handler
        # run + reply build on the target (the host process for the local
        # backend, the forked server for TCP).
        with telemetry.span("offload.execute", bytes=len(data)) as span:
            return _invoke(image, data, start, end, handler_key, msg_id,
                          resolver, trace_id, parent_span_id, trace_flags, span)
    finally:
        if token is not None:
            trace_context.leave(token)


def _invoke(
    image: ProcessImage, data: Any, start: int, end: int, handler_key: int,
    msg_id: int, resolver: Resolver | None, trace_id: int,
    parent_span_id: int, trace_flags: int, span: Any,
) -> tuple[bytes, bool]:
    """Run the handler an INVOKE names and build the reply message: a
    RESULT, or an ERROR carrying the remote traceback. ``span`` (``None``
    while nothing records) is the open ``offload.execute`` span."""
    reply_kind = MSG_RESULT
    try:
        entry = image.entry_for_key(handler_key)
        if span is not None:
            span.set("handler", entry.type_name)
        args, kwargs = decode_args(data, start, end, resolver)
        payload = serialize(entry.handler(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - shipped back to the host
        if span is not None:
            span.set("error", type(exc).__name__)
        reply_kind = MSG_ERROR
        payload = serialize(failure_info(exc))
    if span is not None and span.span_id:
        parent_span_id = span.span_id  # the next hop's parent
    return pack_header(
        reply_kind, 0, msg_id, len(payload),
        trace_id, parent_span_id, trace_flags,
    ) + payload, True


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


def unpack_result(data: bytes) -> tuple[int, Any]:
    """Decode a RESULT/ERROR message on the host; returns ``(msg_id, value)``.

    Raises
    ------
    RemoteExecutionError
        If the message is an ERROR reply — the remote traceback is
        attached.
    SerializationError
        If the message is not a result at all.
    """
    if telemetry.get() is None:
        return _result_of(data)
    # Telemetry phase ``offload.deserialize``: reply decode on the host.
    with telemetry.span("offload.deserialize", bytes=len(data)):
        return _result_of(data)


def _result_of(data: bytes) -> tuple[int, Any]:
    """:func:`unpack_result`'s decode."""
    (kind, _key, msg_id, start, end,
     _trace_id, _parent, _flags) = split_message(data)
    if kind == MSG_RESULT:
        return msg_id, deserialize(data, start, end)
    if kind != MSG_ERROR:
        raise SerializationError(f"expected a result message, got kind {kind}")
    raise remote_error(deserialize(data, start, end))
