"""Distributed trace context — the causal thread through one offload.

One offload crosses a process boundary: the host serializes and sends,
the target executes, the host decodes the reply. Each process's
recorder keeps its own span tree, and a span alone cannot say which
tree on the other side it belongs to.
This module is that tie: a W3C-``traceparent``-style context
(128-bit ``trace_id``, 64-bit parent ``span_id``, a sampled flag) that is

* **generated at** ``offload()`` (:meth:`repro.offload.runtime.Runtime.async_`
  creates one per offload unless the caller already activated a trace);
* **propagated in the active-message header** (version-2 header fields,
  see :mod:`repro.ham.message`) — the header is the one structure that
  always crosses the boundary, on every backend;
* **activated on the target** by
  :func:`repro.ham.execution.execute_message`, so target-side spans
  record the same ``trace_id`` and parent themselves to the host-side
  span that produced the message bytes.

The context rides a :class:`contextvars.ContextVar`, so concurrent
offloads on different threads (or tasks) do not leak into each other.
While telemetry is disabled no context is ever created — the hot path
stays free.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "FLAG_SAMPLED",
    "TraceContext",
    "activate",
    "current",
    "current_trace_id_hex",
    "new_trace",
    "new_trace_id",
]

#: Header/traceparent flag bit: this trace is recorded.
FLAG_SAMPLED = 0x01

_TRACEPARENT_VERSION = "00"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One causal trace: identity plus the current parent span.

    Attributes
    ----------
    trace_id:
        128-bit trace identifier, non-zero. Every span and event of one
        offload — host side and target side — carries it.
    span_id:
        64-bit id of the parent span for the *next* hop (0 at the trace
        root). On the wire this is the host span that built the message.
    sampled:
        The head sampler's verdict
        (:class:`repro.telemetry.sampling.HeadSampler`). An unsampled
        context still propagates identity — every process deciding from
        the same trace id agrees, and the tail pipeline needs the id to
        match staged spans with their completion — but its spans bypass
        the recorder ring (staged host-side, skipped target-side).
    """

    trace_id: int
    span_id: int = 0
    sampled: bool = True
    #: ``trace_id_hex``, formatted by its first reader: every span and
    #: event of the trace carries it, so it is computed once per context.
    _hex: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.trace_id < 1 << 128:
            raise ValueError(f"trace_id must be a non-zero 128-bit int")
        if not 0 <= self.span_id < 1 << 64:
            raise ValueError(f"span_id must fit in 64 bits, got {self.span_id}")

    @property
    def trace_id_hex(self) -> str:
        """The trace id as the 32-char lowercase hex of ``traceparent``."""
        hex_id = self._hex
        if not hex_id:
            hex_id = f"{self.trace_id:032x}"
            object.__setattr__(self, "_hex", hex_id)
        return hex_id

    @property
    def flags(self) -> int:
        """The header/traceparent flag byte."""
        return FLAG_SAMPLED if self.sampled else 0

    def child(self, span_id: int) -> "TraceContext":
        """The same trace re-parented under ``span_id`` (next hop)."""
        return replace(self, span_id=span_id)

    # -- W3C-style text encoding -------------------------------------------
    def to_traceparent(self) -> str:
        """Encode as a ``traceparent`` string: ``00-<trace>-<span>-<flags>``."""
        return (
            f"{_TRACEPARENT_VERSION}-{self.trace_id:032x}"
            f"-{self.span_id:016x}-{self.flags:02x}"
        )

    @classmethod
    def from_traceparent(cls, value: str) -> "TraceContext":
        """Decode a string produced by :meth:`to_traceparent`.

        Raises
        ------
        ValueError
            On malformed input (wrong field count/width, zero trace id).
        """
        parts = value.strip().split("-")
        if len(parts) != 4:
            raise ValueError(f"traceparent needs 4 fields, got {len(parts)}")
        version, trace_hex, span_hex, flags_hex = parts
        if len(version) != 2 or len(trace_hex) != 32 or len(span_hex) != 16:
            raise ValueError(f"malformed traceparent {value!r}")
        return cls(
            trace_id=int(trace_hex, 16),
            span_id=int(span_hex, 16),
            sampled=bool(int(flags_hex, 16) & FLAG_SAMPLED),
        )


#: The active trace of the current thread/task (None outside any trace).
_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def new_trace_id() -> int:
    """A random non-zero 128-bit trace id."""
    trace_id = 0
    while trace_id == 0:
        trace_id = int.from_bytes(os.urandom(16), "big")
    return trace_id


def new_trace(*, sampled: bool = True) -> TraceContext:
    """A fresh root context with a random non-zero 128-bit trace id."""
    return TraceContext(new_trace_id(), 0, sampled)


#: ``current()``: the active trace context, or ``None`` outside any
#: trace — the variable's own ``get``, since every span reads it.
current = _CURRENT.get


def current_trace_id_hex() -> str:
    """Hex trace id of the active *sampled* context ("" outside one)."""
    ctx = _CURRENT.get()
    if ctx is None or not ctx.sampled:
        return ""
    return ctx.trace_id_hex


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
