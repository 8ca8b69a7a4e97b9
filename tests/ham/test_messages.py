"""Tests for the wire format, functors and the generic handler."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import HamError, RemoteExecutionError, SerializationError
from repro.ham import (
    MSG_INVOKE,
    MSG_RESULT,
    build_message,
    f2f,
    parse_message,
)
from repro.ham import functor as functor_module
from repro.ham import message
from repro.ham.execution import build_invoke, execute_message, unpack_result
from repro.ham.functor import Functor
from repro.ham.registry import Catalog, ProcessImage
from repro.ham.serialization import Migratable, register_serializer
from repro.telemetry import context as trace_context
from repro.telemetry.context import TraceContext

from tests import apps


@pytest.fixture()
def catalog():
    cat = Catalog()

    def add(a, b):
        return a + b

    def dot(x, y):
        return float(np.dot(x, y))

    def boom():
        raise ValueError("target exploded")

    cat.register(add, name="app::add")
    cat.register(dot, name="app::dot")
    cat.register(boom, name="app::boom")
    return cat


@pytest.fixture()
def images(catalog):
    return ProcessImage("vh", catalog), ProcessImage("ve", catalog)


class TestWireFormat:
    def test_roundtrip(self):
        data = build_message(MSG_INVOKE, 7, 123, b"payload")
        header, payload = parse_message(data)
        assert header.kind == MSG_INVOKE
        assert header.handler_key == 7
        assert header.msg_id == 123
        assert payload == b"payload"

    def test_bad_magic(self):
        data = bytearray(build_message(MSG_RESULT, 0, 0, b""))
        data[0] = 0
        with pytest.raises(SerializationError, match="magic"):
            parse_message(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="truncated"):
            parse_message(b"HM\x01")

    def test_truncated_payload(self):
        data = build_message(MSG_INVOKE, 0, 0, b"full payload")
        with pytest.raises(SerializationError, match="truncated"):
            parse_message(data[:-3])

    def test_invalid_kind(self):
        with pytest.raises(SerializationError):
            build_message(99, 0, 0, b"")

    def test_negative_ids(self):
        with pytest.raises(SerializationError):
            build_message(MSG_INVOKE, -1, 0, b"")


class TestHeaderVersions:
    """Version-1 / version-2 interop: trace context on the wire."""

    def test_untraced_message_stays_version_1(self):
        from repro.ham.message import HEADER_SIZE

        data = build_message(MSG_INVOKE, 7, 1, b"x")
        assert len(data) == HEADER_SIZE + 1
        assert data[2] == 1  # version byte

    def test_traced_message_uses_version_2(self):
        from repro.ham.message import HEADER_SIZE_V2

        data = build_message(MSG_INVOKE, 7, 1, b"x", trace_id=0xFEED,
                             parent_span_id=42, trace_flags=1)
        assert len(data) == HEADER_SIZE_V2 + 1
        assert data[2] == 2

    def test_v2_round_trip_preserves_trace_fields(self):
        trace_id = (1 << 127) | 0xCAFE
        data = build_message(MSG_RESULT, 0, 5, b"p", trace_id=trace_id,
                             parent_span_id=1 << 63, trace_flags=1)
        header, payload = parse_message(data)
        assert payload == b"p"
        assert header.trace_id == trace_id
        assert header.parent_span_id == 1 << 63
        assert header.trace_flags == 1

    def test_v1_message_parses_with_zeroed_trace_fields(self):
        header, _ = parse_message(build_message(MSG_INVOKE, 7, 1, b""))
        assert header.trace_id == 0
        assert header.parent_span_id == 0
        assert header.trace_flags == 0

    def test_v2_truncated_after_v1_header_rejected(self):
        data = build_message(MSG_INVOKE, 7, 1, b"", trace_id=1)
        from repro.ham.message import HEADER_SIZE

        with pytest.raises(SerializationError, match="truncated"):
            parse_message(data[:HEADER_SIZE])

    def test_unsupported_version_rejected(self):
        data = bytearray(build_message(MSG_INVOKE, 7, 1, b""))
        data[2] = 9
        with pytest.raises(SerializationError, match="version"):
            parse_message(bytes(data))

    def test_a_traced_invoke_is_answered_under_version_3(self):
        from repro.ham.message import HEADER_SIZE_V3, read_execute_block

        image = ProcessImage("v3")
        untraced = execute_message(image, build_invoke(image, f2f(apps.echo, 1), 1))[0]
        assert untraced[2] == 1 and read_execute_block(untraced) is None
        # A scalar result is packed in one step, a list the general way.
        for value in (20, [20]):
            with trace_context.activate(TraceContext(0xBEEF, 7)):
                invoke = build_invoke(image, f2f(apps.echo, value), 2)
            reply = execute_message(image, invoke)[0]
            header, _payload = parse_message(reply)
            assert reply[2] == 3 and len(reply) > HEADER_SIZE_V3
            assert (header.kind, header.trace_id, header.parent_span_id) == (
                MSG_RESULT, 0xBEEF, 7)
            pid, execute_ns = read_execute_block(reply)
            assert pid == os.getpid() and execute_ns > 0
            assert unpack_result(reply)[1] == value

    def test_v3_is_a_reply_header_only(self):
        from repro.ham.message import pack_reply_header, trace_fields

        block = (*trace_fields(1, 2, 1), 3, 4)
        data = bytearray(pack_reply_header(MSG_RESULT, 5, 0, block))
        assert parse_message(bytes(data))[0].msg_id == 5
        data[3] = MSG_INVOKE
        with pytest.raises(SerializationError, match="v3 header"):
            parse_message(bytes(data))
        with pytest.raises(SerializationError, match="v3 header size"):
            parse_message(bytes(data[:-1]))

    def test_out_of_range_trace_fields_rejected(self):
        with pytest.raises(SerializationError, match="128-bit"):
            build_message(MSG_INVOKE, 0, 0, b"", trace_id=1 << 128)
        with pytest.raises(SerializationError, match="64 bits"):
            build_message(MSG_INVOKE, 0, 0, b"", trace_id=1,
                          parent_span_id=1 << 64)


class TestMessageHeader:
    """``MessageHeader`` is tuple-backed: the value-type contract."""

    def test_keyword_construction_and_defaults(self):
        from repro.ham import MessageHeader

        header = MessageHeader(kind=MSG_INVOKE, handler_key=7, msg_id=3,
                               payload_len=11)
        assert (header.kind, header.handler_key, header.msg_id,
                header.payload_len) == (MSG_INVOKE, 7, 3, 11)
        assert (header.trace_id, header.parent_span_id,
                header.trace_flags) == (0, 0, 0)

    def test_equality_is_by_value(self):
        from repro.ham import MessageHeader

        a = MessageHeader(MSG_RESULT, 0, 5, 1, trace_id=9, trace_flags=1)
        b = MessageHeader(kind=MSG_RESULT, handler_key=0, msg_id=5,
                          payload_len=1, trace_id=9, parent_span_id=0,
                          trace_flags=1)
        assert a == b and hash(a) == hash(b)
        assert a != MessageHeader(MSG_RESULT, 0, 6, 1, trace_id=9, trace_flags=1)

    def test_assignment_raises(self):
        header, _ = parse_message(build_message(MSG_INVOKE, 7, 1, b""))
        with pytest.raises(AttributeError):
            header.msg_id = 2
        with pytest.raises(AttributeError):
            header.anything_else = 2

    @pytest.mark.parametrize("trace", [
        {},
        {"trace_id": (1 << 127) | 0xBEEF, "parent_span_id": 77, "trace_flags": 1},
    ], ids=["v1", "v2"])
    def test_parse_then_build_round_trips(self, trace):
        data = build_message(MSG_INVOKE, 7, 123, b"payload", **trace)
        header, payload = parse_message(data)
        rebuilt = build_message(
            header.kind, header.handler_key, header.msg_id, bytes(payload),
            trace_id=header.trace_id, parent_span_id=header.parent_span_id,
            trace_flags=header.trace_flags,
        )
        assert rebuilt == data
        assert parse_message(rebuilt)[0] == header
        assert header.payload_len == len(b"payload")


class TestFunctor:
    def test_f2f_requires_registration(self, catalog):
        def unregistered():
            pass

        with pytest.raises(HamError, match="not offloadable"):
            f2f(unregistered, catalog=catalog)

    def test_args_roundtrip_mixed_types(self):
        functor = Functor("t", (1, "two", np.arange(3.0), {"k": None}))
        args, kwargs = Functor.deserialize_args(functor.serialize_args())
        assert args[0] == 1 and args[1] == "two" and args[3] == {"k": None}
        np.testing.assert_array_equal(args[2], np.arange(3.0))
        assert kwargs == {}

    def test_kwargs_roundtrip(self):
        functor = Functor("t", (1,), (("beta", 2.0), ("alpha", np.arange(2.0))))
        args, kwargs = Functor.deserialize_args(functor.serialize_args())
        assert args == (1,)
        assert kwargs["beta"] == 2.0
        np.testing.assert_array_equal(kwargs["alpha"], np.arange(2.0))

    def test_local_execute(self, catalog):
        functor = Functor("app::add", (2, 3))
        assert functor.execute(catalog) == 5

    def test_local_execute_with_kwargs(self, catalog):
        functor = Functor("app::add", (2,), (("b", 40),))
        assert functor.execute(catalog) == 42

    def test_empty_args(self):
        functor = Functor("t", ())
        assert Functor.deserialize_args(functor.serialize_args()) == ((), {})

    def test_value_semantics(self):
        functor = Functor("t", (1, 2), (("k", 3),))
        assert functor == Functor("t", (1, 2), (("k", 3),))
        assert hash(functor) == hash(Functor("t", (1, 2), (("k", 3),)))
        assert functor != Functor("t", (1, 2)) and functor != ("t", (1, 2), (("k", 3),))
        assert repr(functor) == "Functor(type_name='t', args=(1, 2), kwargs=(('k', 3),))"
        assert not hasattr(functor, "__dict__")

    def test_a_registered_name_is_derived_once(self, monkeypatch):
        catalog = Catalog()

        def kernel(x, *, scale=1):
            return x * scale

        name = catalog.register(kernel)
        monkeypatch.setattr(functor_module, "type_name_of", None)  # not called again
        assert f2f(kernel, 2, scale=3, catalog=catalog) == Functor(
            name, (2,), (("scale", 3),))

    def test_an_unregistered_function_grows_no_table(self, catalog):
        def unregistered():
            pass

        for _ in range(3):
            with pytest.raises(HamError, match="not offloadable"):
                f2f(unregistered, catalog=catalog)
        assert catalog.by_function == {}

    def test_a_function_named_as_a_registered_one_binds(self):
        """Membership is by type name, as the target resolves it: a second
        function object of the same qualified name binds too."""
        catalog = Catalog()

        def make():
            def kernel():
                pass
            return kernel

        catalog.register(make())
        assert f2f(make(), catalog=catalog).type_name.endswith("make.<locals>.kernel")


class TestExecuteMessage:
    def test_invoke_result_roundtrip(self, catalog, images):
        host, target = images
        functor = Functor("app::add", (20, 22))
        invoke = build_invoke(host, functor, msg_id=9)
        reply, keep_running = execute_message(target, invoke)
        assert keep_running
        msg_id, value = unpack_result(reply)
        assert (msg_id, value) == (9, 42)

    def test_v1_invoke_executes(self, catalog, images):
        # Outside any trace, build_invoke emits the compact v1 header —
        # and a v1 message (e.g. from a pre-tracing peer) must execute.
        host, target = images
        invoke = build_invoke(host, Functor("app::add", (1, 2)), msg_id=3)
        assert invoke[2] == 1  # version byte
        reply, _keep = execute_message(target, invoke)
        assert unpack_result(reply) == (3, 3)
        assert reply[2] == 1  # untraced reply stays v1 too

    def test_traced_invoke_propagates_context_to_reply(self, catalog, images):
        from repro.telemetry import context as trace_context

        host, target = images
        ctx = trace_context.new_trace()
        with trace_context.activate(ctx):
            invoke = build_invoke(host, Functor("app::add", (1, 2)), msg_id=3)
        assert invoke[2] == 2
        header, _ = parse_message(invoke)
        assert header.trace_id == ctx.trace_id
        reply, _keep = execute_message(target, invoke)
        reply_header, _ = parse_message(reply)
        assert reply_header.trace_id == ctx.trace_id
        assert unpack_result(reply) == (3, 3)

    def test_numpy_args(self, catalog, images):
        host, target = images
        x = np.arange(10.0)
        functor = Functor("app::dot", (x, x))
        reply, _ = execute_message(target, build_invoke(host, functor, 1))
        _, value = unpack_result(reply)
        assert value == pytest.approx(float(np.dot(x, x)))

    def test_remote_exception_shipped_back(self, catalog, images):
        host, target = images
        invoke = build_invoke(host, Functor("app::boom", ()), 5)
        reply, keep_running = execute_message(target, invoke)
        assert keep_running  # errors must not kill the message loop
        with pytest.raises(RemoteExecutionError, match="target exploded") as excinfo:
            unpack_result(reply)
        assert "ValueError" in excinfo.value.remote_traceback

    def test_shutdown_message(self, catalog, images):
        host, target = images
        shutdown = build_message(
            kind=4, handler_key=0, msg_id=77, payload=b""
        )
        # Build a proper shutdown with serialized empty payload.
        from repro.ham.message import MSG_SHUTDOWN

        shutdown = build_message(MSG_SHUTDOWN, 0, 77, b"")
        reply, keep_running = execute_message(target, shutdown)
        assert not keep_running
        msg_id, value = unpack_result(reply)
        assert msg_id == 77 and value is None

    def test_resolver_applied(self, catalog, images):
        host, target = images
        invoke = build_invoke(host, Functor("app::add", ("a", "b")), 2)
        reply, _ = execute_message(
            target, invoke, resolver=lambda arg: arg.upper()
        )
        _, value = unpack_result(reply)
        assert value == "AB"

    def test_result_message_rejected_by_target(self, catalog, images):
        _host, target = images
        bogus = build_message(MSG_RESULT, 0, 0, b"")
        with pytest.raises(SerializationError, match="non-invoke"):
            execute_message(target, bogus)

    def test_unknown_handler_key_becomes_error_reply(self, catalog, images):
        host, target = images
        functor = Functor("app::add", (1, 2))
        invoke = bytearray(build_invoke(host, functor, 3))
        # Corrupt the key field (offset 4, 8 bytes little-endian).
        invoke[4:12] = (10_000).to_bytes(8, "little")
        reply, keep_running = execute_message(target, bytes(invoke))
        assert keep_running
        with pytest.raises(RemoteExecutionError, match="handler key"):
            unpack_result(reply)


class TestCompiledInvokeCodec:
    def test_first_use_race_compiles_one_codec(self, catalog, monkeypatch):
        """Threads using one signature for the first time on one image, at
        once, get identical bytes, every one through the one codec the
        image kept, whoever else compiled one meanwhile."""
        compiled = []
        compile_invoke = message.compile_invoke

        def slow_compile(*args):
            encoder = compile_invoke(*args)
            uses = []
            compiled.append(uses)
            time.sleep(0.01)  # the other threads miss the cache meanwhile

            def counted(*call):
                uses.append(call[0])
                return encoder(*call)
            return counted

        monkeypatch.setattr(message, "compile_invoke", slow_compile)
        image = ProcessImage("vh", catalog)
        functor = Functor("app::add", (1, 2.5, "x", np.arange(2)))
        start = threading.Barrier(8)
        out = [None] * 8

        def first_use(i):
            start.wait(10)
            out[i] = build_invoke(image, functor, 5)

        threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert out == [build_message(MSG_INVOKE, image.key_for("app::add"), 5,
                                     functor.serialize_args())] * 8
        assert len(image.invoke_encoders) == 1
        assert sorted(map(len, compiled))[-1:] == [8] and sum(map(len, compiled)) == 8

    def test_register_serializer_recompiles(self, images):
        """A codec compiled while a type travelled as ``Migratable`` is
        not used once the type has a hook, which gives it another code."""
        host, _target = images

        class Point(Migratable):
            def __serialize__(self) -> bytes:
                return b"migratable"

        functor = Functor("app::add", (Point(), 1))
        as_migratable = build_invoke(host, functor, 1)
        register_serializer(Point, "tests.Point", lambda p: b"hook", lambda d: Point())
        assert len(host.invoke_encoders) == 0
        as_custom = build_invoke(host, functor, 1)
        assert as_custom != as_migratable
        assert as_custom == build_message(
            MSG_INVOKE, host.key_for("app::add"), 1, functor.serialize_args())
