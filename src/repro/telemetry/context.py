"""Distributed trace context — the causal thread through one offload.

One offload crosses a process boundary: the host serializes and sends,
the target executes, the host decodes the reply. Each process's
recorder keeps its own span tree, and a span alone cannot say which
tree on the other side it belongs to.
This module is that tie: a context (128-bit ``trace_id``, 64-bit parent
``span_id``) that is

* **generated at** ``offload()`` (:meth:`repro.offload.runtime.Runtime.async_`
  creates one per offload unless the caller already activated a trace);
* **propagated in the active-message header** (version-2 header fields,
  see :mod:`repro.ham.message`) — the header is the one structure that
  always crosses the boundary, on every backend;
* **activated on the target** by
  :func:`repro.ham.execution.execute_message` while that process
  records, so target-side spans record the same ``trace_id`` and parent
  themselves to the host-side span that produced the message bytes (a
  target that does not record builds no context; its reply carries the
  header's trace back all the same).

The context rides a :class:`contextvars.ContextVar`, so concurrent
offloads on different threads (or tasks) do not leak into each other.
While telemetry is disabled no context is ever created — the hot path
stays free. Trace ids come from a generator of this module's own
(:func:`new_trace_id`), not from a system call per offload.
"""

from __future__ import annotations

import contextvars
import os
import random
from typing import Any

__all__ = [
    "FLAG_SAMPLED",
    "TraceContext",
    "activate",
    "current",
    "enter",
    "leave",
    "new_trace",
    "new_trace_id",
]

#: Header flag bit 0, set on every traced message. A receiver ignores the
#: flag byte: a v2 message is recorded whatever its flags say.
FLAG_SAMPLED = 0x01


class TraceContext:
    """One causal trace: identity plus the current parent span.

    Never modified once built, and equal and hashable by its two
    fields. Not a frozen dataclass: its ``__init__`` would store every
    field through ``object.__setattr__``, and the runtime builds one
    root context per traced offload.

    Attributes
    ----------
    trace_id:
        128-bit trace identifier, non-zero. Every span and event of one
        offload — host side and target side — carries it.
    span_id:
        64-bit id of the parent span for the *next* hop (0 at the trace
        root). On the wire this is the host span that built the message.
    trace_id_hex:
        The trace id as 32-char lowercase hex, formatted once here:
        every span and event of the trace carries it.
    flags:
        The header's flag byte: always :data:`FLAG_SAMPLED`.
    """

    __slots__ = ("trace_id", "span_id", "trace_id_hex")

    flags = FLAG_SAMPLED

    def __init__(self, trace_id: int, span_id: int = 0) -> None:
        if not 0 < trace_id < 1 << 128:
            raise ValueError("trace_id must be a non-zero 128-bit int")
        if not 0 <= span_id < 1 << 64:
            raise ValueError(f"span_id must fit in 64 bits, got {span_id}")
        self.trace_id = trace_id
        self.span_id = span_id
        self.trace_id_hex = f"{trace_id:032x}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return self.trace_id == other.trace_id and self.span_id == other.span_id

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext(trace_id={self.trace_id}, span_id={self.span_id})"

    def child(self, span_id: int) -> "TraceContext":
        """The same trace re-parented under ``span_id`` (next hop)."""
        return TraceContext(self.trace_id, span_id)


#: The active trace of the current thread/task (None outside any trace).
_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


#: Where trace ids come from: a generator of this module's own, seeded
#: from ``os.urandom`` and again in a forked child (whose ids must not
#: repeat the parent's). Not the global ``random``, which an application
#: may seed; ``getrandbits`` costs no system call per offload.
_IDS = random.Random()
os.register_at_fork(after_in_child=_IDS.seed)


def new_trace_id() -> int:
    """A random non-zero 128-bit trace id."""
    trace_id = _IDS.getrandbits(128)
    while not trace_id:
        trace_id = _IDS.getrandbits(128)
    return trace_id


def new_trace() -> TraceContext:
    """A fresh root context with a random non-zero 128-bit trace id."""
    # new_trace_id(), written out: a draw is zero once in 2**128.
    return TraceContext(_IDS.getrandbits(128) or new_trace_id())


#: ``current()``: the active trace context, or ``None`` outside any
#: trace — the variable's own ``get``, since every span reads it.
current = _CURRENT.get

#: ``token = enter(ctx)`` ... ``leave(token)``: :func:`activate` without
#: the context manager, for the one-per-offload paths (the runtime's
#: fresh root, a target's remote context), which restore the previous
#: context on every way out themselves.
enter = _CURRENT.set
leave = _CURRENT.reset


class _Activation:
    """Context manager behind :func:`activate`; ``None`` passes through."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext | None:
        if self._ctx is not None:
            self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._ctx is not None:
            _CURRENT.reset(self._token)


#: ``activate(None)``: never touches its token, so one instance is shared
#: by every caller and thread (stateless, like ``NOOP_SPAN``).
_PASSTHROUGH = _Activation(None)


def activate(ctx: TraceContext | None) -> _Activation:
    """Install ``ctx`` as the active trace for the ``with`` block.

    ``activate(None)`` is a no-op passthrough (an enclosing context
    stays visible), so call sites can write ``with activate(maybe_ctx):``
    without branching.
    """
    return _PASSTHROUGH if ctx is None else _Activation(ctx)
