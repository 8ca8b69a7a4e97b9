"""A peer's bytes are read by the value codec alone — in either direction.

An INVOKE whose argument is a pickle naming ``os.system`` (or ``eval``,
or numpy's old ``exec_command``) under the retired ``P`` code comes back
as a typed error, nothing runs, and the *same* target answers the next
offload; a RESULT or an ``OP_FAILURE`` carrying the same pickles raises
a typed error on the client, whose runtime stays usable. Both over
``shm`` and ``tcp``, on the in-process servers of
``test_target_dispatch`` (so "the same target" is a thread this test
can see). Waits carry a timeout only so a regression fails instead of
hanging.

A pickle need not name a function to do harm: a forged numpy dtype,
once decoded, makes the first read of one of its fields segfault. That
row runs in a fresh interpreter, so a regression fails the row instead
of killing the run.
"""

import pickle
import struct

import numpy as np
import pytest

from repro.backends._server import OP_FAILURE, OP_INVOKE, OP_REPLY_BIT
from repro.errors import RemoteExecutionError, SerializationError
from repro.ham import MSG_RESULT, Functor, build_message, f2f
from repro.ham.message import HEADER_SIZE_V2
from repro.ham.registry import type_name_of
from repro.ham.serialization import deserialize, serialize
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.backends.test_client_core import _rewrite_replies, _settled
from tests.backends.test_target_dispatch import WAIT, Target
from tests.fresh import fresh_python

HOSTILE = [
    ("os", "system", "touch {marker}"),
    ("builtins", "eval", "open({marker!r}, 'w').close()"),
    ("numpy.distutils.exec_command", "exec_command", "touch {marker}"),
]


@pytest.fixture(params=["shm", "tcp"])
def target(request):
    target = Target(request.param)
    target.connect()
    try:
        yield target
    finally:
        target.server.__dict__.pop("_reply", None)  # what the test rewrote
        target.runtime.shutdown()
        target.thread.join(WAIT)
    assert not target.thread.is_alive()


@pytest.fixture(params=HOSTILE, ids=lambda call: f"{call[0]}.{call[1]}")
def hostile(request, tmp_path):
    """``(pickle bytes, marker path)``: a hand-written protocol-0 pickle
    of ``module.name(arg)`` whose ``arg`` would create ``marker``."""
    module, name, arg = request.param
    marker = tmp_path / "ran"
    arg = arg.format(marker=str(marker))
    return f"c{module}\n{name}\n(V{arg}\ntR.".encode(), marker


class _RawArguments(Functor):
    """A functor whose argument block is the bytes it was given."""

    def serialize_args_parts(self) -> list:
        return [self.args[0]]


def _one_argument(code: bytes, body: bytes) -> bytes:
    """The wire form of an argument list of one value of ``code``."""
    signature = struct.pack("<HH", 1, 0) + code
    return signature + struct.pack("<I", len(body)) + body


def test_hostile_invoke_is_refused_and_the_same_target_serves_on(target, hostile):
    body, marker = hostile
    functor = _RawArguments(type_name_of(apps.echo), (_one_argument(b"P", body),))
    future = target.runtime.async_(1, functor)
    with pytest.raises(RemoteExecutionError, match="SerializationError") as refused:
        future.get(timeout=WAIT)
    assert "unknown payload tag" in str(refused.value)
    assert not marker.exists()
    assert target.thread.is_alive()
    assert target.runtime.sync(1, f2f(apps.add, 20, 22)) == 42
    assert _settled(target)


def test_well_formed_twin_of_the_hostile_invoke_executes(target):
    """The hand-built argument block is the real format: the same bytes
    around a list's items run the kernel."""
    items = b"".join(struct.pack("<I", 9) + serialize(i) for i in (1, 2))
    functor = _RawArguments(type_name_of(apps.echo), (_one_argument(b"L", items),))
    assert target.runtime.sync(1, functor) == [1, 2]


def test_v2_invoke_with_flag_byte_zero_is_recorded(target):
    """The flag byte is ignored on receipt: an INVOKE whose bit 0 is
    clear executes on a recording target and records ``offload.execute``
    in its trace, like any traced message."""
    send = target.backend._send

    def flags_cleared(op, corr, *parts):
        if op == OP_INVOKE:  # the header leads the first part
            first = bytearray(parts[0])
            assert first[2] == 2 and len(first) >= HEADER_SIZE_V2
            first[HEADER_SIZE_V2 - 1] = 0
            parts = (bytes(first), *parts[1:])
        send(op, corr, *parts)

    target.backend._send = flags_cleared
    recorder = telemetry.enable()  # the in-process target records too
    try:
        ctx = trace_context.TraceContext(0xF1A9)
        with trace_context.activate(ctx):
            assert target.runtime.sync(1, f2f(apps.echo, 7)) == 7
        [execute] = recorder.spans("offload.execute")
        assert execute.trace_id == ctx.trace_id_hex
    finally:
        telemetry.disable()
        del target.backend._send
    assert _settled(target)


def test_hostile_result_raises_a_typed_error_on_the_client(target, hostile):
    body, marker = hostile

    def as_hostile_result(send, op, corr, parts):
        if op == OP_INVOKE | OP_REPLY_BIT:
            parts = (build_message(MSG_RESULT, 0, 0, b"P" + body),)
        send(op, corr, *parts)

    _rewrite_replies(target, as_hostile_result)
    future = target.runtime.async_(1, f2f(apps.add, 1, 2))
    with pytest.raises(SerializationError, match="unknown payload tag"):
        future.get(timeout=WAIT)
    assert not marker.exists()
    target.server.__dict__.pop("_reply")
    assert target.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    assert _settled(target)


def test_hostile_failure_body_raises_a_typed_error_on_the_client(target, hostile):
    body, marker = hostile

    def as_hostile_failure(send, op, corr, parts):
        send(OP_FAILURE, corr, body)

    _rewrite_replies(target, as_hostile_failure)
    future = target.runtime.async_(1, f2f(apps.add, 1, 2))
    with pytest.raises(SerializationError, match="unknown payload tag"):
        future.get(timeout=WAIT)
    with pytest.raises(SerializationError, match="unknown payload tag"):
        target.backend.alloc_buffer(1, 8)  # the sync-op sink takes the same path
    assert not marker.exists()
    target.server.__dict__.pop("_reply")
    assert target.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    assert _settled(target)


def _forged_dtype_pickle() -> bytes:
    """A pickle of a ``V16`` dtype whose field ``b`` sits at offset 2**28:
    numpy's ``__setstate__`` takes the offsets on trust."""

    class Forged:
        def __reduce__(self):
            fields = {"a": (np.dtype("<i8"), 0), "b": (np.dtype("<i8"), 1 << 28)}
            return np.dtype, ("V16", False, True), (
                3, "|", None, ("a", "b"), fields, 16, 1, 16)

    return pickle.dumps(Forged(), protocol=4)


def refuse_the_forged_dtype_everywhere() -> None:
    """As a value, as an INVOKE argument and as a RESULT, over shm and
    tcp: each is refused, and the same target serves on. A decoder that
    lets the dtype through gets it used, as a kernel would."""
    forged = _forged_dtype_pickle()

    def refused(decode):
        try:
            value = decode()
        except (SerializationError, RemoteExecutionError) as exc:
            assert "unknown payload tag" in str(exc), exc
        else:
            np.zeros(1, value)["b"].sum()  # reads 2**28 bytes past the element
            raise AssertionError(f"decoded {value!r}")

    def as_forged_result(send, op, corr, parts):
        if op == OP_INVOKE | OP_REPLY_BIT:
            parts = (build_message(MSG_RESULT, 0, 0, b"P" + forged),)
        send(op, corr, *parts)

    refused(lambda: deserialize(b"P" + forged))
    for transport in ("shm", "tcp"):
        target = Target(transport)
        target.connect()
        try:
            argument = _one_argument(b"P", forged)
            refused(lambda: target.runtime.sync(
                1, _RawArguments(type_name_of(apps.echo), (argument,))))
            assert target.runtime.sync(1, f2f(apps.add, 20, 22)) == 42
            _rewrite_replies(target, as_forged_result)
            refused(lambda: target.runtime.sync(1, f2f(apps.add, 1, 2)))
            target.server.__dict__.pop("_reply")
            assert target.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
            assert _settled(target)
        finally:
            target.server.__dict__.pop("_reply", None)
            target.runtime.shutdown()
            target.thread.join(WAIT)
    print("refused")


def test_forged_dtype_is_refused_in_a_fresh_process():
    out = fresh_python(
        "from tests.failure.test_hostile_input import "
        "refuse_the_forged_dtype_everywhere as run; run()"
    )
    assert out.splitlines()[-1] == "refused"
