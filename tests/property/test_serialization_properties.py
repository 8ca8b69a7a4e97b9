"""Property-based tests of serialization and the wire format."""

import enum
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SerializationError
from repro.ham.functor import Functor
from repro.ham.message import (
    HEADER_SIZE,
    MSG_ERROR,
    MSG_INVOKE,
    MSG_RESULT,
    MSG_SHUTDOWN,
    build_message,
    parse_message,
)
from repro.ham.serialization import deserialize, register_serializer, serialize
from repro.offload.buffer import BufferPtr

# JSON-ish nested Python data.
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=25,
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.uint8, np.int32, np.int64, np.float32, np.float64, np.complex128]),
    shape=hnp.array_shapes(max_dims=3, max_side=8),
    elements=st.just(0) | st.integers(min_value=0, max_value=100),
)


class TestSerializationProperties:
    @given(value=json_like)
    @settings(max_examples=120, deadline=None)
    def test_python_roundtrip_identity(self, value):
        assert deserialize(serialize(value)) == value

    @given(arr=arrays)
    @settings(max_examples=80, deadline=None)
    def test_numpy_roundtrip_preserves_everything(self, arr):
        back = deserialize(serialize(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    @given(junk=st.binary(min_size=0, max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_garbage_never_crashes_decoder(self, junk):
        """Arbitrary bytes either decode or raise SerializationError —
        never any other exception (robustness of the receive path)."""
        try:
            deserialize(junk)
        except SerializationError:
            pass

    @given(
        args=st.lists(json_like, max_size=6),
        kwargs=st.dictionaries(
            st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
            json_like,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_functor_args_framing_roundtrip(self, args, kwargs):
        functor = Functor("t", tuple(args), tuple(sorted(kwargs.items())))
        back_args, back_kwargs = Functor.deserialize_args(functor.serialize_args())
        assert back_args == tuple(args)
        assert back_kwargs == kwargs


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Shade(enum.IntEnum):
    """An application type with no hook: it has no wire code."""

    DARK = 1


register_serializer(
    Colour, "test.colour",
    encode=lambda colour: colour.name.encode(),
    decode=lambda data: Colour[data.decode()],
)

#: Values whose *type* the codec must bring back, not only their value:
#: every one of them equals a plain int or float.
typed_scalars = (
    st.booleans()
    | st.integers()  # unbounded: at and beyond +-2**63 too
    | st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63, 0])
    | st.floats()  # nan, +-inf and -0.0 included
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
    | st.sampled_from(list(Colour))
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=32).map(np.float32)
)
#: Any str (lone surrogates included) and any bytes, empty ones too.
texts = st.text(st.characters(), max_size=20) | st.sampled_from(["", "\ud800", "a\udfffb"])
blobs = st.binary(max_size=40) | st.just(b"")
pointers = st.builds(
    BufferPtr,
    node=st.integers(0, 2**31),
    addr=st.integers(0, 2**64 - 1),
    dtype_str=st.sampled_from(["float64", "int32", "uint8"]),
    count=st.integers(0, 2**40),
)
#: One value of every numpy scalar kind the ``n`` code carries.
numpy_scalars = (
    st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.integers(-128, 127).map(np.int8)
    | st.floats().map(np.float64)
    | st.floats(width=16).map(np.float16)
    | st.complex_numbers().map(np.complex128)
    | st.booleans().map(np.bool_)
    # numpy's fixed-width items drop trailing NULs, on the wire or not
    | st.text(max_size=5).filter(lambda t: not t.endswith("\0")).map(np.str_)
    | st.binary(max_size=5).filter(lambda b: not b.endswith(b"\0")).map(np.bytes_)
    | st.integers(-(2**40), 2**40).map(lambda n: np.datetime64(n, "s"))
)
#: Leaves the closed code set added to ``int``/``float``/``str``/...:
#: each keeps its exact type.
coded_leaves = (
    st.none() | typed_scalars | texts | blobs | numpy_scalars
    | st.complex_numbers() | st.binary(max_size=10).map(bytearray)
    | st.integers(min_value=2**63) | st.integers(max_value=-(2**63) - 1)
)
hashable_leaves = (
    st.none() | st.booleans() | st.integers() | texts | blobs
    | st.floats(allow_nan=False) | st.complex_numbers(allow_nan=False)
)
#: Every container code, nested in every other.
nested_values = st.recursive(
    coded_leaves | arrays,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(hashable_leaves, children, max_size=4)
    | st.frozensets(hashable_leaves, max_size=4)
    | st.sets(hashable_leaves | st.frozensets(hashable_leaves, max_size=2), max_size=4),
    max_leaves=20,
)
codec_values = (st.none() | typed_scalars | texts | blobs | arrays | pointers
                | json_like | nested_values)
#: Each code that took over from the retired pickle code, on its own.
new_codes = {
    "B": st.binary(max_size=10).map(bytearray),
    "j": st.complex_numbers(),
    "W": st.integers(min_value=2**63) | st.integers(max_value=-(2**63) - 1),
    "n": numpy_scalars,
    "T": st.lists(coded_leaves, max_size=4).map(tuple),
    "L": st.lists(coded_leaves, max_size=4),
    "S": st.sets(hashable_leaves, max_size=4),
    "F": st.frozensets(hashable_leaves, max_size=4),
    "D": st.dictionaries(hashable_leaves, coded_leaves, max_size=4),
}


def same(left, right) -> bool:
    """Same type and same value, with nan == nan and -0.0 != 0.0."""
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return (left.dtype == right.dtype and left.shape == right.shape
                and np.array_equal(left, right, equal_nan=True))
    if isinstance(left, (float, complex, np.inexact)):
        return repr(left) == repr(right)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):  # keys, like set members: hashable leaves, no nan
        return left.keys() == right.keys() and all(
            same(key, _twin(key, right)) and same(left[key], right[key]) for key in left)
    if isinstance(left, (set, frozenset)):
        return left == right and all(same(key, _twin(key, right)) for key in left)
    return left == right


def _twin(key, pool):
    """The member of ``pool`` equal to ``key`` (``1 == True``; its type may not be)."""
    return next(member for member in pool if member == key)


bytes_likes = st.sampled_from([bytes, bytearray, memoryview])


class TestCompiledCodecProperties:
    @given(value=codec_values, as_input=bytes_likes)
    @settings(max_examples=300, deadline=None)
    def test_value_roundtrip_keeps_type_and_value(self, value, as_input):
        assert same(deserialize(as_input(serialize(value))), value)

    @pytest.mark.parametrize("code", sorted(new_codes))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_new_code_round_trips_alone(self, code, data):
        value = data.draw(new_codes[code])
        wire = serialize(value)
        assert wire[:1] == code.encode()
        assert same(deserialize(wire), value)

    @given(
        args=st.lists(codec_values, max_size=6),
        kwargs=st.dictionaries(texts, codec_values, max_size=3),
        as_input=bytes_likes,
    )
    @settings(max_examples=200, deadline=None)
    def test_argument_list_roundtrip_keeps_type_and_value(self, args, kwargs, as_input):
        functor = Functor("t", tuple(args), tuple(sorted(kwargs.items())))
        back_args, back_kwargs = Functor.deserialize_args(
            as_input(functor.serialize_args())
        )
        assert same(list(back_args), args)
        assert same(back_kwargs, kwargs)

    def test_true_is_not_one_and_wide_ints_survive(self):
        args = (True, 1, 2**63, -(2**63) - 1, Colour.RED, np.int64(1), 1.0, np.float32(1))
        back, _ = Functor.deserialize_args(Functor("t", args).serialize_args())
        assert [type(v) for v in back] == [type(v) for v in args]
        assert back == args

    def test_scalar_signature_costs_one_pack(self):
        """``echo(i)``: signature + one packed block, in one buffer."""
        parts = Functor("t", (7, 2.5, False)).serialize_args_parts()
        assert len(parts) == 1
        assert parts[0].endswith(struct.pack("<qd?", 7, 2.5, False))

    def test_array_data_rides_as_a_view_of_the_array(self):
        arr = np.arange(6.0).reshape(2, 3)
        parts = Functor("t", (1, arr, "s"), (("k", arr),)).serialize_args_parts()
        views = [part for part in parts if isinstance(part, memoryview)]
        assert len(views) == 2 and all(view.obj is arr for view in views)

    def test_unregistered_application_class_is_refused_on_decode(self):
        # On the host first: a type with no code and no hook is never sent.
        for value in (Shade.DARK, [1, {"k": Shade.DARK}]):
            with pytest.raises(SerializationError, match="register_serializer"):
                serialize(value)
            with pytest.raises(SerializationError, match="Migratable"):
                Functor("t", (1, value)).serialize_args()
        wire = serialize(Colour.RED).replace(b"test.colour", b"test.nobody")
        with pytest.raises(SerializationError, match="no custom serializer"):
            deserialize(wire)


@st.composite
def mutated(draw, payload: bytes) -> bytes:
    """``payload`` cut short, with a few bytes rewritten, or grown."""
    data = bytearray(payload)
    for _ in range(draw(st.integers(0, 4))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut] if draw(st.booleans()) else data) + draw(st.binary(max_size=4))


class TestHostileBytesProperties:
    """Whatever arrives, a decoder answers or raises SerializationError:
    never ``struct.error``/``IndexError``/``UnicodeDecodeError``/
    ``ValueError``/``MemoryError``."""

    @given(data=st.data(), args=st.lists(codec_values, max_size=4),
           kwargs=st.dictionaries(texts, codec_values, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_mutated_argument_lists(self, data, args, kwargs):
        wire = Functor("t", tuple(args), tuple(sorted(kwargs.items()))).serialize_args()
        try:
            Functor.deserialize_args(data.draw(mutated(wire)))
        except SerializationError:
            pass

    @given(data=st.data(), value=codec_values)
    @settings(max_examples=300, deadline=None)
    def test_mutated_values(self, data, value):
        try:
            deserialize(data.draw(mutated(serialize(value))))
        except SerializationError:
            pass

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_argument_lists(self, junk):
        try:
            Functor.deserialize_args(junk)
        except SerializationError:
            pass

    @given(
        dtype=st.sampled_from(["float64", "int8", "complex128", "O", "V0", "S5", "x", ""]),
        shape=st.lists(st.integers(0, 2**64 - 1), max_size=4),
        ndim=st.integers(0, 255),
        nbytes=st.integers(0, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_header_is_checked_before_anything_is_allocated(
        self, dtype, shape, ndim, nbytes
    ):
        """A header may claim any shape (and an ``ndim`` that disagrees
        with the words that follow); only an array whose byte count equals
        the bytes that actually arrived is ever materialized."""
        name = dtype.encode()
        wire = (b"N" + struct.pack("<BB", len(name), ndim) + name
                + struct.pack(f"<{len(shape)}Q", *shape) + bytes(nbytes))
        try:
            arr = deserialize(wire)
        except SerializationError:
            return
        assert arr.nbytes == len(wire) - (3 + len(name) + 8 * ndim)
        assert arr.ndim == ndim and not arr.dtype.hasobject

    def test_huge_claimed_shape_is_refused_by_arithmetic(self):
        header = struct.pack("<BB", 5, 2) + b"uint8" + struct.pack("<2Q", 2**40, 2**20)
        with pytest.raises(SerializationError, match="does not match"):
            deserialize(b"N" + header + b"\0" * 16)
        block = (struct.pack("<HH", 1, 0) + b"N"
                 + struct.pack("<I", len(header) + 16) + header + b"\0" * 16)
        with pytest.raises(SerializationError, match="does not match"):
            Functor.deserialize_args(block)

    def test_length_word_past_the_payload_is_refused(self):
        block = (struct.pack("<HH", 1, 0) + b"b"
                 + struct.pack("<I", 2**32 - 1) + b"abc")
        with pytest.raises(SerializationError, match="past the payload"):
            Functor.deserialize_args(block)


class TestWireFormatProperties:
    kinds = st.sampled_from([MSG_INVOKE, MSG_RESULT, MSG_ERROR, MSG_SHUTDOWN])

    @given(
        kind=kinds,
        key=st.integers(min_value=0, max_value=2**63 - 1),
        msg_id=st.integers(min_value=0, max_value=2**63 - 1),
        payload=st.binary(max_size=200),
    )
    @settings(max_examples=120, deadline=None)
    def test_header_roundtrip(self, kind, key, msg_id, payload):
        header, body = parse_message(build_message(kind, key, msg_id, payload))
        assert (header.kind, header.handler_key, header.msg_id) == (kind, key, msg_id)
        assert body == payload

    @given(
        payload=st.binary(max_size=100),
        cut=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncation_always_detected(self, payload, cut):
        data = build_message(MSG_INVOKE, 1, 2, payload)
        truncated = data[: max(0, len(data) - 1 - cut)]
        with pytest.raises(SerializationError):
            parse_message(truncated)

    @given(
        payload=st.binary(max_size=100),
        position=st.integers(min_value=0, max_value=3),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_corrupted_prefix_never_crashes(self, payload, position, value):
        """Flipping early header bytes (magic/version/kind) either still
        parses (benign flip) or raises SerializationError."""
        data = bytearray(build_message(MSG_RESULT, 0, 0, payload))
        data[position] = value
        try:
            parse_message(bytes(data))
        except SerializationError:
            pass

    @given(payload=st.binary(max_size=50), extra=st.binary(min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_trailing_bytes_ignored(self, payload, extra):
        """Slot buffers are larger than messages: parsing must read exactly
        the declared payload length and ignore the slack."""
        data = build_message(MSG_INVOKE, 3, 4, payload) + extra
        header, body = parse_message(data)
        assert body == payload
        assert header.payload_len == len(payload)
