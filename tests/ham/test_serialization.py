"""Tests for the value codec (type codes, numpy fast path, hooks,
containers, and the refusal of values that have no code)."""

import ast
import enum
import math
import pathlib
import struct
import sys

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.ham import serialization
from repro.ham.serialization import (
    Migratable,
    decode_args,
    deserialize,
    encode_args,
    register_serializer,
    serialize,
)


class TestBasicRoundtrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -1,
            3.14159,
            "text",
            b"bytes",
            [1, 2, 3],
            (4, 5),
            {"k": [1, {"nested": None}]},
            {1, 2, 3},
        ],
    )
    def test_python_values(self, value):
        assert deserialize(serialize(value)) == value

    def test_large_payload(self):
        value = list(range(100_000))
        assert deserialize(serialize(value)) == value


class TestNumpyFastPath:
    def test_roundtrip_preserves_dtype_and_shape(self):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        back = deserialize(serialize(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_uses_raw_tag(self):
        assert serialize(np.zeros(4))[:1] == b"N"

    def test_non_contiguous_array(self):
        arr = np.arange(100, dtype=np.int64)[::3]
        np.testing.assert_array_equal(deserialize(serialize(arr)), arr)

    def test_fortran_order(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        np.testing.assert_array_equal(deserialize(serialize(arr)), arr)

    def test_empty_array(self):
        arr = np.zeros((0, 5), dtype=np.int32)
        back = deserialize(serialize(arr))
        assert back.shape == (0, 5)

    def test_object_dtype_rejected(self):
        arr = np.array([object()], dtype=object)
        with pytest.raises(SerializationError):
            serialize(arr)

    def test_result_is_writable_copy(self):
        back = deserialize(serialize(np.zeros(4)))
        back[0] = 1  # must not raise (frombuffer gives read-only views)


class TestCustomSerializers:
    def test_custom_hook_roundtrip(self):
        class Complex3:
            def __init__(self, x, y, z):
                self.coords = (x, y, z)

            def __eq__(self, other):
                return self.coords == other.coords

        register_serializer(
            Complex3,
            "test.complex3",
            encode=lambda c: ",".join(map(str, c.coords)).encode(),
            decode=lambda b: Complex3(*map(float, b.decode().split(","))),
        )
        value = Complex3(1.0, 2.0, 3.0)
        assert deserialize(serialize(value)) == value
        assert serialize(value)[:1] == b"C"

    def test_unknown_custom_name(self):
        frame = b"C" + (9).to_bytes(2, "little") + b"ghostname" + b"body"
        with pytest.raises(SerializationError, match="no custom serializer"):
            deserialize(frame)

    def test_failing_encoder_wrapped(self):
        class Doomed:
            pass

        register_serializer(
            Doomed,
            "test.doomed",
            encode=lambda _d: (_ for _ in ()).throw(RuntimeError("enc fail")),
            decode=lambda b: None,
        )
        with pytest.raises(SerializationError, match="enc fail"):
            serialize(Doomed())


class SampleMigratable(Migratable):
    """Module-level, so the decoder finds it in this loaded module."""

    def __init__(self, payload: str) -> None:
        self.payload = payload

    def __serialize__(self) -> bytes:
        return self.payload.encode()

    @classmethod
    def __deserialize__(cls, data: bytes) -> "SampleMigratable":
        return cls(data.decode())


class TestMigratable:
    def test_roundtrip(self):
        back = deserialize(serialize(SampleMigratable("hi")))
        assert isinstance(back, SampleMigratable)
        assert back.payload == "hi"

    def test_bad_class_path(self):
        frame = b"M" + (12).to_bytes(2, "little") + b"nope:Missing" + b""
        with pytest.raises(SerializationError, match="cannot import"):
            deserialize(frame)

    def test_a_frame_never_imports_the_module_it_names(self, tmp_path, monkeypatch):
        """The class must be in a module this process already loaded: a
        module the peer names is not imported, even when it could be."""
        (tmp_path / "peer_named.py").write_text(
            "from repro.ham.serialization import Migratable\n"
            "IMPORTED = True\n"
            "class Planted(Migratable):\n"
            "    @classmethod\n"
            "    def __deserialize__(cls, data):\n"
            "        return cls()\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        path = b"peer_named:Planted"
        frame = b"M" + len(path).to_bytes(2, "little") + path
        loaded = set(sys.modules)
        with pytest.raises(SerializationError, match="not loaded here"):
            deserialize(frame)
        assert set(sys.modules) == loaded


class TestErrorHandling:
    def test_empty_payload(self):
        with pytest.raises(SerializationError):
            deserialize(b"")

    def test_unknown_tag(self):
        with pytest.raises(SerializationError, match="unknown payload tag"):
            deserialize(b"Zjunk")

    def test_corrupt_pickle(self):
        with pytest.raises(SerializationError):
            deserialize(b"P" + b"\x00\x01garbage")

    def test_unpicklable_value(self):
        with pytest.raises(SerializationError):
            serialize(lambda: None)


def _pickle_calling(module: str, name: str, arg: str) -> bytes:
    """A protocol-0 pickle of ``module.name(arg)`` — written by hand, so
    the named callable need not exist (or be importable) here."""
    return f"c{module}\n{name}\n(V{arg}\ntR.".encode()


class Hue(enum.IntEnum):
    """Module-level, so pickle could name it: it has no hook all the same."""

    RED = 1


class TestRestrictedLoader:
    """What the pickle allow-list admitted travels under typed codes now:
    every value below keeps its exact type and value, alone and as an
    argument; anything else is refused where it is encoded."""

    @pytest.mark.parametrize(
        "value",
        [
            {"k": [1, 2.5, None, True, "s", b"b", (1, 2)], "s": {1, 2}},
            frozenset({1}), complex(1, 2), (), [], bytearray(b"ab"),
            np.int64(5), np.float32(1.5), {}, [np.arange(3)], 1 << 70,
            set(), frozenset(), -(1 << 70), complex(-0.0, math.inf),
            np.bool_(True), np.str_("ab"), np.str_(""), np.bytes_(b"x"),
            np.datetime64("2020-01-02"), np.complex128(1 - 2j), np.uint64(2**64 - 1),
            ((1, (2, [3, {4: frozenset({5})}])),),
        ],
    )
    def test_plain_data_loads(self, value):
        for back in (deserialize(serialize(value)),
                     decode_args(*_whole(encode_args((value,))))[0][0]):
            assert type(back) is type(value)
            assert str(back) == str(value)

    @pytest.mark.parametrize(
        "value", [range(3), slice(1, 2), np.dtype("f4"), Hue.RED,
                  np.zeros(1, "i4,f8")[0], [1, (2, range(3))]],
        ids=["range", "slice", "dtype", "IntEnum", "structured", "nested"],
    )
    def test_a_value_with_no_code_is_refused_on_the_host(self, value):
        with pytest.raises(SerializationError,
                           match="register_serializer|structured") as refused:
            serialize(value)
        if "structured" not in str(refused.value):
            assert "Migratable" in str(refused.value)
        with pytest.raises(SerializationError):
            encode_args((1, value))

    @pytest.mark.parametrize(
        "module, name",
        [
            ("os", "system"),
            ("posix", "system"),
            ("builtins", "eval"),
            ("builtins", "getattr"),
            ("numpy.distutils.exec_command", "exec_command"),
            ("numpy", "load"),
            ("repro.offload.api", "init"),
            ("numpy._core.multiarray", "frombuffer"),
        ],
    )
    def test_unlisted_global_is_refused_unexecuted(self, module, name, tmp_path):
        """A pickle is no value: its bytes are refused by their first one."""
        marker = tmp_path / "ran"
        pickled = _pickle_calling(module, name, f"touch {marker}")
        for wire in (pickled, b"P" + pickled):
            with pytest.raises(SerializationError, match="unknown payload tag"):
                deserialize(wire)
        assert not marker.exists()

    def test_nothing_under_src_imports_or_calls_pickle(self):
        src = pathlib.Path(serialization.__file__).parents[1]
        picklers = {"pickle", "_pickle", "cPickle", "copyreg", "shelve"}
        hits = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {(node.module or "").split(".")[0]}
                elif isinstance(node, ast.Name):  # ``pickle.loads``, a re-export
                    names = {node.id}
                else:
                    continue
                if names & picklers:
                    hits.append(f"{path.relative_to(src)}:{node.lineno}")
        assert hits == []


def _whole(parts: list) -> tuple[bytes, int, int]:
    data = b"".join(parts)
    return data, 0, len(data)


class TestContainers:
    def test_items_are_length_words_and_values(self):
        assert serialize((1, "a")) == (
            b"T" + struct.pack("<I", 9) + serialize(1)
            + struct.pack("<I", 2) + serialize("a")
        )
        assert serialize({"k": None}) == (
            b"D" + struct.pack("<I", 2) + serialize("k") + struct.pack("<I", 1) + b"z"
        )

    def test_a_list_costs_its_rows_and_one_word_each(self):
        rows = [{"name": "x", "attrs": {"i": i}} for i in range(5)]
        assert len(serialize(rows)) == 1 + sum(4 + len(serialize(r)) for r in rows)

    def test_numpy_float64_is_small(self):
        assert len(serialize(np.float64(0.1))) <= 16

    def test_nesting_is_bounded_on_both_sides(self):
        value: object = 0
        for _ in range(serialization.MAX_NESTING):
            value = [value]
        assert deserialize(serialize(value)) == value
        with pytest.raises(SerializationError, match="nest deeper"):
            serialize([value])
        looped: list = []
        looped.append(looped)
        with pytest.raises(SerializationError, match="nest deeper"):
            serialize(looped)
        wire = serialize(0)
        for _ in range(serialization.MAX_NESTING + 1):
            wire = b"L" + struct.pack("<I", len(wire)) + wire
        with pytest.raises(SerializationError, match="nest deeper"):
            deserialize(wire)

    @pytest.mark.parametrize("wire", [
        b"D" + struct.pack("<I", 2) + serialize(1)[:2],  # item cut short
        b"L" + struct.pack("<I", 9) + serialize(1) + b"\0\0",  # stray bytes
        b"D" + struct.pack("<I", 9) + serialize(1),  # a key with no value
        b"S" + struct.pack("<I", 5) + b"L\0\0\0\0",  # an unhashable item
        b"j" + bytes(15),
        b"n" + bytes([3]) + b"|O8" + bytes(8),  # object dtype
        b"n" + bytes([3]) + b"<f8" + bytes(7),
        b"n" + bytes([200]) + b"<f8",
        b"n",
    ])
    def test_malformed_items_and_scalars_raise_serialization_error(self, wire):
        with pytest.raises(SerializationError):
            deserialize(wire)
