"""Tests for the value codec (type codes, numpy fast path, hooks, and
the restricted loader behind the last-resort code)."""

import pathlib
import pickle
import re
import sys

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.ham import serialization
from repro.ham.serialization import (
    Migratable,
    deserialize,
    register_serializer,
    restricted_loads,
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
            serialize(lambda: None)  # local lambdas don't pickle


def _pickle_calling(module: str, name: str, arg: str) -> bytes:
    """A protocol-0 pickle of ``module.name(arg)`` — written by hand, so
    the named callable need not exist (or be importable) here."""
    return f"c{module}\n{name}\n(V{arg}\ntR.".encode()


class TestRestrictedLoader:
    @pytest.mark.parametrize(
        "value",
        [
            {"k": [1, 2.5, None, True, "s", b"b", (1, 2)], "s": {1, 2}},
            frozenset({1}), complex(1, 2), range(3), slice(1, 2), bytearray(b"ab"),
            np.int64(5), np.float32(1.5), np.dtype("f4"),
            [np.arange(3)], 1 << 70,
        ],
    )
    def test_plain_data_loads(self, value):
        back = restricted_loads(pickle.dumps(value, protocol=4))
        assert type(back) is type(value)
        assert str(back) == str(value)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("os", "system"),
            ("posix", "system"),
            ("builtins", "eval"),
            ("builtins", "getattr"),
            ("numpy.distutils.exec_command", "exec_command"),
            ("numpy", "load"),  # no "numpy.*" prefix rule
            ("repro.offload.api", "init"),  # no "repro.*" prefix rule
            ("numpy._core.multiarray", "frombuffer"),
        ],
    )
    def test_unlisted_global_is_refused_unexecuted(self, module, name, tmp_path):
        marker = tmp_path / "ran"
        with pytest.raises(SerializationError, match="not on the allow-list"):
            restricted_loads(_pickle_calling(module, name, f"touch {marker}"))
        with pytest.raises(SerializationError, match="not on the allow-list"):
            deserialize(b"P" + _pickle_calling(module, name, f"touch {marker}"))
        assert not marker.exists()

    def test_listed_name_must_be_a_class_defined_in_that_module(self, monkeypatch):
        """Listing a pair is not enough: ``tests.apps.offloadable`` is a
        function re-exported from ``repro.ham``, ``tests.apps.np.ndarray``
        style aliases resolve elsewhere."""
        from tests import apps  # noqa: F401 - must be in sys.modules

        monkeypatch.setattr(
            serialization, "_ALLOWED_CLASSES",
            serialization._ALLOWED_CLASSES | {
                ("tests.apps", "offloadable"), ("tests.apps", "np"),
                ("os", "system"), ("unimported_module_xyz", "Thing"),
            },
        )
        for module, name in [("tests.apps", "offloadable"), ("tests.apps", "np"),
                             ("os", "system"), ("unimported_module_xyz", "Thing")]:
            with pytest.raises(SerializationError, match="not a class defined there"):
                restricted_loads(_pickle_calling(module, name, "x"))

    def test_allow_list_is_explicit_pairs(self):
        pairs = serialization._ALLOWED_CLASSES | serialization._ALLOWED_RECONSTRUCTORS
        assert all(
            isinstance(module, str) and isinstance(name, str)
            and "*" not in module + name
            for module, name in pairs
        )

    def test_only_the_restricted_loader_unpickles_under_src(self):
        src = pathlib.Path(serialization.__file__).parents[1]
        loads = re.compile(r"pickle\.loads?\b|Unpickler")
        hits = [
            f"{path.relative_to(src)}:{number}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if loads.search(line)
        ]
        # The subclass statement, its one instantiation, and the docstring
        # of ``restricted_loads`` saying what it replaces.
        assert len(hits) == 3 and all(
            hit.startswith("ham/serialization.py:") for hit in hits
        ), hits
