"""A peer's bytes never reach a general unpickler — in either direction.

An INVOKE whose argument is a pickle naming ``os.system`` (or ``eval``,
or numpy's old ``exec_command``) comes back as a typed error, nothing
runs, and the *same* target answers the next offload; a RESULT or an
``OP_FAILURE`` carrying the same pickles raises a typed error on the
client, whose runtime stays usable. Both over ``shm`` and ``tcp``, on
the in-process servers of ``test_target_dispatch`` (so "the same target"
is a thread this test can see). Waits carry a timeout only so a
regression fails instead of hanging.
"""

import struct

import pytest

from repro.backends._server import OP_FAILURE, OP_INVOKE, OP_REPLY_BIT
from repro.errors import RemoteExecutionError, SerializationError
from repro.ham import MSG_RESULT, Functor, build_message, f2f
from repro.ham.registry import type_name_of

from tests import apps
from tests.backends.test_client_core import _rewrite_replies, _settled
from tests.backends.test_target_dispatch import WAIT, Target

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


def _one_pickled_argument(body: bytes) -> bytes:
    """The wire form of an argument list of one last-resort value."""
    signature = struct.pack("<HH", 1, 0) + b"P"
    return signature + struct.pack("<I", len(body)) + body


def test_hostile_invoke_is_refused_and_the_same_target_serves_on(target, hostile):
    body, marker = hostile
    functor = _RawArguments(type_name_of(apps.echo), (_one_pickled_argument(body),))
    future = target.runtime.async_(1, functor)
    with pytest.raises(RemoteExecutionError, match="SerializationError") as refused:
        future.get(timeout=WAIT)
    assert "not on the allow-list" in str(refused.value)
    assert not marker.exists()
    assert target.thread.is_alive()
    assert target.runtime.sync(1, f2f(apps.add, 20, 22)) == 42
    assert _settled(target)


def test_well_formed_twin_of_the_hostile_invoke_executes(target):
    """The hand-built argument block is the real format: the same bytes
    around a harmless pickle run the kernel."""
    import pickle

    block = _one_pickled_argument(pickle.dumps([1, 2], protocol=4))
    functor = _RawArguments(type_name_of(apps.echo), (block,))
    assert target.runtime.sync(1, functor) == [1, 2]


def test_hostile_result_raises_a_typed_error_on_the_client(target, hostile):
    body, marker = hostile

    def as_hostile_result(send, op, corr, parts):
        if op == OP_INVOKE | OP_REPLY_BIT:
            parts = (build_message(MSG_RESULT, 0, 0, b"P" + body),)
        send(op, corr, *parts)

    _rewrite_replies(target, as_hostile_result)
    future = target.runtime.async_(1, f2f(apps.add, 1, 2))
    with pytest.raises(SerializationError, match="not on the allow-list"):
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
    with pytest.raises(SerializationError, match="not on the allow-list"):
        future.get(timeout=WAIT)
    with pytest.raises(SerializationError, match="not on the allow-list"):
        target.backend.alloc_buffer(1, 8)  # the sync-op sink takes the same path
    assert not marker.exists()
    target.server.__dict__.pop("_reply")
    assert target.runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    assert _settled(target)
