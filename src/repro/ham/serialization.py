"""Serialization of active-message payloads.

The paper (Sec. I-A): "*Function arguments and return values are
transported inside the active message. A special type wrapper provides
hooks to transparently do serialisation and de-serialisation of (complex)
data types if necessary.*"

Three mechanisms, tried in order:

1. **custom serializers** registered per type via
   :func:`register_serializer` (the "type wrapper hooks");
2. a **numpy fast path** — arrays are encoded as a small dtype/shape
   header plus their raw bytes, avoiding pickle overhead for the large
   payloads HPC codes ship;
3. **pickle** for everything else.

The wire encoding is self-describing: a one-byte tag selects the decoder.

Zero-copy contract: :func:`serialize_parts` returns the encoding as a
list of buffers — for the numpy fast path the array's own memory rides
along as a :class:`memoryview`, so a scatter-gather transport can hand
it to the kernel without ever calling ``tobytes()`` on a large
contiguous array. Decoders accept any bytes-like object (``bytes``,
``bytearray``, ``memoryview``), and :func:`deserialize` of a numpy
payload materializes exactly one writable copy.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Type

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "Migratable",
    "deserialize",
    "register_serializer",
    "serialize",
    "serialize_parts",
]

#: Anything the decoders accept.
BytesLike = "bytes | bytearray | memoryview"

_TAG_PICKLE = b"P"
_TAG_NUMPY = b"N"
_TAG_CUSTOM = b"C"
_TAG_MIGRATABLE = b"M"

#: type -> (name, encode, decode); name is transferred on the wire.
_CUSTOM: dict[Type[Any], tuple[str, Callable[[Any], bytes], Callable[[bytes], Any]]] = {}
_CUSTOM_BY_NAME: dict[str, Callable[[bytes], Any]] = {}


def register_serializer(
    cls: Type[Any],
    name: str,
    encode: Callable[[Any], bytes],
    decode: Callable[[bytes], Any],
) -> None:
    """Register a custom (de)serializer for ``cls``.

    ``name`` must be identical in every process image (it travels on the
    wire); re-registering a name replaces the previous pair.
    """
    _CUSTOM[cls] = (name, encode, decode)
    _CUSTOM_BY_NAME[name] = decode


class Migratable:
    """Base class for objects bringing their own (de)serialization hooks.

    Subclasses implement :meth:`__serialize__` returning bytes and the
    classmethod :meth:`__deserialize__` rebuilding the instance. The
    subclass must be importable under the same module path in every
    process image (same rule as for offloadable functions).
    """

    def __serialize__(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def __deserialize__(cls, data: bytes) -> "Migratable":
        raise NotImplementedError


def _encode_numpy_parts(arr: np.ndarray) -> list:
    """Numpy fast-path encoding as ``[prefix, raw-data-view]``.

    The second part is a flat :class:`memoryview` over the array's own
    (contiguous) storage — no ``tobytes()`` copy. The view keeps the
    array alive for as long as the parts list is referenced.
    """
    if arr.dtype.hasobject:
        raise SerializationError("cannot serialize object-dtype arrays raw")
    contiguous = np.ascontiguousarray(arr)
    header = pickle.dumps((str(contiguous.dtype), contiguous.shape), protocol=4)
    prefix = _TAG_NUMPY + len(header).to_bytes(4, "little") + header
    if contiguous.nbytes == 0:
        return [prefix]
    return [prefix, contiguous.data.cast("B")]


def _decode_numpy(data) -> np.ndarray:
    header_len = int.from_bytes(data[:4], "little")
    dtype_str, shape = pickle.loads(data[4 : 4 + header_len])
    payload = data[4 + header_len :]
    # Single copy: decode into writable bytearray-backed storage instead
    # of building a read-only frombuffer view and copying it again.
    storage = bytearray(payload)
    return np.frombuffer(storage, dtype=np.dtype(dtype_str)).reshape(shape)


def serialize(value: Any) -> bytes:
    """Encode ``value`` into self-describing bytes.

    Raises
    ------
    SerializationError
        If the value cannot be encoded by any mechanism.
    """
    parts = serialize_parts(value)
    data = parts[0] if len(parts) == 1 else b"".join(parts)
    return data if isinstance(data, bytes) else bytes(data)


def serialize_parts(value: Any) -> list:
    """Encode ``value`` as a list of buffers (``bytes`` / ``memoryview``).

    Equivalent to :func:`serialize` concatenated, but numpy array data
    is returned as a view on the array's own storage so scatter-gather
    transports can send it without an intermediate copy.
    """
    if (
        isinstance(value, np.ndarray)
        and not isinstance(value, Migratable)
        and type(value) not in _CUSTOM
    ):
        parts = _encode_numpy_parts(value)
    else:
        parts = [_serialize(value)]
    return parts


def _serialize(value: Any) -> bytes:
    custom = _CUSTOM.get(type(value))
    if custom is not None:
        name, encode, _decode = custom
        try:
            body = encode(value)
        except Exception as exc:  # noqa: BLE001 - user hook failed
            raise SerializationError(
                f"custom serializer {name!r} failed: {exc}"
            ) from exc
        name_bytes = name.encode()
        return (
            _TAG_CUSTOM + len(name_bytes).to_bytes(2, "little") + name_bytes + body
        )
    if isinstance(value, Migratable):
        cls = type(value)
        path = f"{cls.__module__}:{cls.__qualname__}"
        body = value.__serialize__()
        path_bytes = path.encode()
        return (
            _TAG_MIGRATABLE
            + len(path_bytes).to_bytes(2, "little")
            + path_bytes
            + body
        )
    if isinstance(value, np.ndarray):
        return b"".join(_encode_numpy_parts(value))
    try:
        return _TAG_PICKLE + pickle.dumps(value, protocol=4)
    except Exception as exc:  # noqa: BLE001 - unpicklable
        raise SerializationError(f"cannot serialize {type(value).__name__}: {exc}") from exc


def _load_migratable_class(path: str) -> Type[Migratable]:
    import importlib

    module_name, _, qualname = path.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError, ValueError, TypeError) as exc:
        raise SerializationError(f"cannot import migratable class {path!r}") from exc
    if not (isinstance(obj, type) and issubclass(obj, Migratable)):
        raise SerializationError(f"{path!r} is not a Migratable subclass")
    return obj


def deserialize(data) -> Any:
    """Decode a buffer produced by :func:`serialize`.

    Accepts any bytes-like object; ``memoryview`` input is decoded
    without an upfront copy (slices stay views until a decoder needs
    real bytes).

    Raises
    ------
    SerializationError
        On unknown tags, truncated frames or failing hooks.
    """
    if not len(data):
        raise SerializationError("empty payload")
    # A one-byte slice (bytes or memoryview) compares equal to the tags.
    tag, body = data[:1], data[1:]
    if tag == _TAG_PICKLE:
        try:
            return pickle.loads(body)
        except Exception as exc:  # noqa: BLE001 - corrupt frame
            raise SerializationError(f"pickle decode failed: {exc}") from exc
    if tag == _TAG_NUMPY:
        try:
            return _decode_numpy(body)
        except SerializationError:
            raise
        except Exception as exc:  # noqa: BLE001 - corrupt frame
            raise SerializationError(f"numpy decode failed: {exc}") from exc
    if tag == _TAG_CUSTOM:
        if len(body) < 2:
            raise SerializationError("truncated custom frame")
        name_len = int.from_bytes(body[:2], "little")
        try:
            name = bytes(body[2 : 2 + name_len]).decode()
        except UnicodeDecodeError as exc:
            raise SerializationError(f"corrupt custom-serializer name: {exc}") from exc
        decode = _CUSTOM_BY_NAME.get(name)
        if decode is None:
            raise SerializationError(f"no custom serializer named {name!r}")
        try:
            # User hooks are promised real bytes (their documented
            # contract predates memoryview framing).
            return decode(bytes(body[2 + name_len :]))
        except SerializationError:
            raise
        except Exception as exc:  # noqa: BLE001 - user hook failed
            raise SerializationError(f"custom decoder {name!r} failed: {exc}") from exc
    if tag == _TAG_MIGRATABLE:
        if len(body) < 2:
            raise SerializationError("truncated migratable frame")
        path_len = int.from_bytes(body[:2], "little")
        try:
            path = bytes(body[2 : 2 + path_len]).decode()
        except UnicodeDecodeError as exc:
            raise SerializationError(f"corrupt migratable class path: {exc}") from exc
        cls = _load_migratable_class(path)
        try:
            return cls.__deserialize__(bytes(body[2 + path_len :]))
        except SerializationError:
            raise
        except Exception as exc:  # noqa: BLE001 - user hook failed
            raise SerializationError(
                f"migratable decoder for {path!r} failed: {exc}"
            ) from exc
    raise SerializationError(f"unknown payload tag {bytes(tag)!r}")
