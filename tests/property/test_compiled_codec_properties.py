"""The compiled codecs write and read the bytes of the general path.

An offload builds its INVOKE through the encoder its image compiled for
the message type and argument types, in one ``pack``; the host reads a
scalar RESULT in one ``unpack_from``. Neither may change a byte, nor
what a reply decodes to: each is checked here against the general,
step-by-step form it replaces (``build_message`` around
``serialize_args``; ``split_message`` and ``deserialize``).
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import SerializationError
from repro.ham.execution import build_invoke, remote_error, unpack_result
from repro.ham.functor import Functor
from repro.ham.message import (
    MSG_ERROR,
    MSG_INVOKE,
    MSG_RESULT,
    MSG_SHUTDOWN,
    build_message,
    split_message,
)
from repro.ham.registry import Catalog, ProcessImage
from repro.ham.serialization import deserialize, serialize
from repro.telemetry import context as trace_context
from repro.telemetry.context import TraceContext

from tests.property.test_serialization_properties import arrays, mutated, same

#: Argument values of every kind a compiled layout treats apart: the
#: scalars (at and beyond 64 bits), None, str, bytes, arrays, containers.
arguments = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63])
    | st.floats()
    | st.text(max_size=12)
    | st.binary(max_size=12)
    | arrays
    | st.lists(st.integers(-5, 5), max_size=3)
)
names = st.text("abcdefghij_", min_size=1, max_size=6)
traces = st.none() | st.tuples(
    st.integers(1, 2**128 - 1), st.integers(0, 2**64 - 1))


def _image() -> ProcessImage:
    catalog = Catalog()
    for name in ("app::a", "app::b", "app::c"):
        catalog.register(lambda *args, **kwargs: None, name=name)
    return ProcessImage("compiled", catalog)


IMAGE = _image()


def _general_invoke(image, functor, msg_id, ctx) -> bytes:
    """The INVOKE of the step-by-step path: header, then the argument block."""
    trace = {} if ctx is None else {
        "trace_id": ctx.trace_id, "parent_span_id": ctx.span_id,
        "trace_flags": ctx.flags}
    return build_message(MSG_INVOKE, image.key_for(functor.type_name), msg_id,
                         functor.serialize_args(), **trace)


def _general_result(data):
    """The reply decode of the step-by-step path."""
    kind, _key, msg_id, start, end, *_trace = split_message(data)
    if kind == MSG_RESULT:
        return msg_id, deserialize(data, start, end)
    if kind != MSG_ERROR:
        raise SerializationError(f"expected a result message, got kind {kind}")
    raise remote_error(deserialize(data, start, end))


class TestCompiledInvoke:
    @given(
        type_name=st.sampled_from(["app::a", "app::b", "app::c"]),
        args=st.lists(arguments, max_size=5),
        kwargs=st.dictionaries(names, arguments, max_size=3),
        msg_id=st.integers(0, 2**64 - 1),
        trace=traces,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_general_build(self, type_name, args, kwargs, msg_id, trace):
        functor = Functor(type_name, tuple(args), tuple(sorted(kwargs.items())))
        ctx = None if trace is None else TraceContext(*trace)
        with trace_context.activate(ctx):
            compiled = build_invoke(IMAGE, functor, msg_id)
        assert compiled == _general_invoke(IMAGE, functor, msg_id, ctx)

    def test_every_argument_kind_under_both_headers(self):
        values = (None, True, 7, -(2**63) - 1, 2**64, 2.5, "s", b"b", np.arange(3.0), [1])
        functor = Functor("app::b", values, (("k", np.zeros(2, np.int32)), ("z", 2**80)))
        for ctx in (None, TraceContext(0xABC, 9)):
            with trace_context.activate(ctx):
                compiled = build_invoke(IMAGE, functor, 11)
            assert compiled == _general_invoke(IMAGE, functor, 11, ctx)


#: RESULT/ERROR payloads: scalars (the one-step read's) and the rest.
results = st.one_of(
    st.booleans(), st.integers(-(2**63), 2**63 - 1), st.floats(),
    st.none(), st.text(max_size=8), st.integers(min_value=2**63),
)


@st.composite
def replies(draw) -> bytes:
    kind = draw(st.sampled_from([MSG_RESULT, MSG_RESULT, MSG_ERROR, MSG_INVOKE,
                                 MSG_SHUTDOWN]))
    payload = serialize(draw(results))
    if kind == MSG_ERROR:
        payload = serialize({"type": "E", "message": "m", "traceback": ""})
    trace = draw(traces)
    header = {} if trace is None else {
        "trace_id": trace[0], "parent_span_id": trace[1], "trace_flags": 1}
    return build_message(kind, draw(st.integers(0, 3)),
                         draw(st.integers(0, 2**64 - 1)), payload, **header)


#: The header fields the one-step read checks, and the code after them:
#: (offset, struct format, values to write there).
_CHECKED_FIELDS = [
    (0, "<2s", st.binary(min_size=2, max_size=2) | st.just(b"HM")),
    (2, "<B", st.integers(0, 4)),  # version
    (3, "<B", st.integers(0, 5)),  # kind
    (20, "<I", st.integers(0, 40)),  # payload length
    (24, "<c", st.sampled_from([b"i", b"d", b"?", b"z", b"s"])),  # code
]


@st.composite
def scalar_results_with_a_field_rewritten(draw) -> bytes:
    """A version-1 RESULT of one scalar with one checked field rewritten,
    then cut or grown by a few bytes."""
    value = draw(st.booleans() | st.integers(-(2**63), 2**63 - 1) | st.floats())
    data = bytearray(build_message(MSG_RESULT, 0, draw(st.integers(0, 2**64 - 1)),
                                   serialize(value)))
    at, fmt, values = draw(st.sampled_from(_CHECKED_FIELDS))
    struct.pack_into(fmt, data, at, draw(values))
    cut = draw(st.integers(len(data) - 3, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=3))


def _outcome(read, data):
    try:
        return "value", read(data)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "error", type(exc)


class TestScalarResultRead:
    @given(data=st.data(), reply=replies())
    @settings(max_examples=400, deadline=None)
    def test_one_step_read_decodes_as_the_general_path(self, data, reply):
        for wire in (reply, data.draw(mutated(reply))):
            got, expected = _outcome(unpack_result, wire), _outcome(_general_result, wire)
            if got[0] == "value" and expected[0] == "value":
                assert got[1][0] == expected[1][0] and same(got[1][1], expected[1][1])
            else:
                assert got == expected

    @given(wire=scalar_results_with_a_field_rewritten())
    @settings(max_examples=400, deadline=None)
    def test_every_checked_field_is_checked(self, wire):
        got, expected = _outcome(unpack_result, wire), _outcome(_general_result, wire)
        if got[0] == "value" and expected[0] == "value":
            assert got[1][0] == expected[1][0] and same(got[1][1], expected[1][1])
        else:
            assert got == expected
