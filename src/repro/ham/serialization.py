"""The typed value codec of active-message payloads.

The paper (Sec. I-A): "*Function arguments and return values are
transported inside the active message. A special type wrapper provides
hooks to transparently do serialisation and de-serialisation of (complex)
data types if necessary.*" A HAM message *is* its type, so nothing on
the wire is parsed generically: every value carries a one-byte **type
code** and is read by the decoder of exactly that code.

::

    code     value (exact type)          fixed field  variable part
    i d ?    int (64 bits), float, bool  <q <d <?
    z        None
    s        str                         length       UTF-8 (surrogatepass)
    b B      bytes, bytearray            length       the bytes
    j        complex                     length       <dd: real, imaginary
    W        int beyond 64 bits          length       signed little-endian bytes
    n        numpy scalar                length       u8 len(dtype.str), dtype.str, item
    N        numpy.ndarray               length       u8 len(dtype), u8 ndim, dtype,
                                                      ndim x u64 shape, raw data
    T L S F  tuple, list, set, frozenset length       items
    D        dict                        length       items, key then value
    C        register_serializer type    length       u16 len(name), name, hook's bytes
    M        Migratable                  length       u16 len(path), path, hook's bytes

Types match *exactly* (``True`` is not an ``int``, nor an ``np.int64``),
so a value returns as the type it left as. A value of any other type
(an ``IntEnum`` member, an application class, a ``range``) has no code:
it raises :class:`~repro.errors.SerializationError` where it is
*encoded*, before anything is sent. An item is a ``u32`` length and
the item's :func:`serialize` bytes; containers nest up to
:data:`MAX_NESTING` deep.

One value (:func:`serialize` / :func:`deserialize`) is its code followed
by its fixed field or its variable part. An argument list
(:func:`encode_args` / :func:`decode_args`) travels as its *signature*
— the codes and the keyword names — then one ``struct``-packed block of
all fixed fields (a length word for every variable part), then the
variable parts in order::

    signature:  u16 npos, u16 nkw, (npos + nkw) codes, nkw x (u16 len, name)
    fixed block
    variable parts

The codec of a signature is compiled on first sight and cached. On the
send side :func:`args_layout` is the half a process image compiles into
one INVOKE encoder per message type and argument types
(:meth:`~repro.ham.registry.ProcessImage.invoke_encoder`: header and
block in one ``pack``); on the receive side the decoder is cached by the
signature bytes. A warm ``echo(i)`` costs one lookup and one ``pack`` to
build and one lookup and one ``unpack_from`` to decode.

No generic deserializer exists: these decoders read every byte a peer
sends. Each raises :class:`~repro.errors.SerializationError` — and
nothing else — on malformed input, and no allocation is sized by a
length the payload does not back.

Zero-copy contract: array data rides along as a :class:`memoryview` of
the array's own storage, so a scatter-gather transport never calls
``tobytes()`` on a large contiguous array. Decoders accept any
bytes-like object, and decoding an array materializes exactly one
writable copy.
"""

from __future__ import annotations

import math
import struct
import sys
import threading
import weakref
from functools import partial
from itertools import chain
from typing import Any, Callable, Type

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "CODEC_REVISION",
    "MAX_NESTING",
    "Migratable",
    "SCALARS",
    "args_layout",
    "decode_args",
    "deserialize",
    "encode_args",
    "encode_parts",
    "encoder_cache",
    "register_serializer",
    "serialize",
    "wide_types",
]

#: Revision of the value codec and the message headers
#: (:mod:`repro.ham.message`). :meth:`ProcessImage.digest` mixes it in,
#: so a peer speaking another format fails the handshake instead of
#: mis-parsing. Bump on any change to either.
CODEC_REVISION = 4

#: How deep containers may nest inside one value.
MAX_NESTING = 32

#: The codes named outside the table of codes (:data:`_CODES`).
_NONE, _NUMPY, _NUMPY_SCALAR, _CUSTOM_CODE, _MIGRATABLE = b"z", b"N", b"n", b"C", b"M"
#: The fixed field of every code that has a variable part: its length.
_LENGTH = "I"
_SCALAR_FIELDS = frozenset("qd?")


class _WideInt:
    """Stands in for ``int`` in an encoder key when the value does not
    fit the ``i`` code's 64 bits."""


_U16 = struct.Struct("<H")
_ITEM_LENGTH = struct.Struct("<" + _LENGTH)
_SIG_COUNTS = struct.Struct("<HH")
_NUMPY_HEAD = struct.Struct("<BB")
_COMPLEX_FIELDS = struct.Struct("<dd")

#: Compiled codecs; a peer (or a caller inventing keyword names) chooses
#: the keys, so a cache is emptied when it reaches this many entries.
_CACHE_LIMIT = 1024


class CodecCache(dict):
    """Compiled codecs by key, bounded by :data:`_CACHE_LIMIT`."""

    __slots__ = ("__weakref__",)

    def put(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key`` unless a racing thread stored one
        first; return the one stored."""
        if len(self) >= _CACHE_LIMIT:
            self.clear()
        return self.setdefault(key, value)


#: Every live cache of compiled encoders: a codec compiled for a type
#: chose its code, which :func:`register_serializer` may change. Plain
#: references without callbacks, so a cache that dies runs no code.
_ENCODER_CACHES: "list[weakref.ref[CodecCache]]" = []
_ENCODER_CACHES_LOCK = threading.Lock()


def encoder_cache() -> CodecCache:
    """A new cache of compiled encoders, emptied by :func:`register_serializer`."""
    cache = CodecCache()
    with _ENCODER_CACHES_LOCK:
        _ENCODER_CACHES[:] = [ref for ref in _ENCODER_CACHES if ref() is not None]
        _ENCODER_CACHES.append(weakref.ref(cache))
    return cache


#: A decoder, and whether its block is scalars alone (fields ``q d ?``).
_DECODERS = CodecCache()
_DTYPE_NAMES = CodecCache()

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
    with _ENCODER_CACHES_LOCK:  # a codec compiled for ``cls`` chose another code
        for ref in _ENCODER_CACHES:
            cache = ref()
            if cache is not None:
                cache.clear()


class Migratable:
    """Base class for objects bringing their own (de)serialization hooks.

    Subclasses implement :meth:`__serialize__` returning bytes and the
    classmethod :meth:`__deserialize__` rebuilding the instance. The
    subclass must live under the same module path in every process image
    (same rule as for offloadable functions), and the receiver must have
    imported that module already: a frame never imports one.
    """

    def __serialize__(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def __deserialize__(cls, data: bytes) -> "Migratable":
        raise NotImplementedError


# -- variable parts: one encoder and one decoder per code ------------------------
def _peer_dtype(name: memoryview) -> np.dtype:
    """The dtype a peer named; numpy parses the name and builds it."""
    try:
        dtype = np.dtype(str(name, "ascii"))
    except Exception as exc:  # noqa: BLE001 - whatever numpy makes of junk
        raise SerializationError(f"corrupt numpy dtype: {exc}") from exc
    if dtype.hasobject or dtype.fields is not None:
        raise SerializationError(f"refusing numpy dtype {dtype}")
    return dtype


def _encode_numpy(arr: np.ndarray) -> list:
    """``[header, raw-data-view]``: the second part is a flat
    :class:`memoryview` over the array's own (contiguous) storage — no
    ``tobytes()`` copy; it keeps the array alive while referenced."""
    dtype = arr.dtype
    if dtype.hasobject:
        raise SerializationError("cannot serialize object-dtype arrays raw")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    name = _DTYPE_NAMES.get(dtype)
    if name is None:  # ``str(dtype)`` costs more than the rest of this function
        name = _DTYPE_NAMES.put(dtype, str(dtype).encode())
    ndim = arr.ndim
    try:
        header = (_NUMPY_HEAD.pack(len(name), ndim) + name
                  + struct.pack(f"<{ndim}Q", *arr.shape))
    except struct.error as exc:
        raise SerializationError(f"cannot describe array of {dtype}: {exc}") from exc
    if arr.nbytes == 0:
        return [header]
    return [header, (arr if ndim else arr.reshape(1)).data.cast("B")]


def _decode_numpy(body: memoryview) -> np.ndarray:
    if len(body) < _NUMPY_HEAD.size:
        raise SerializationError("truncated array header")
    name_len, ndim = _NUMPY_HEAD.unpack_from(body)
    shape_at = _NUMPY_HEAD.size + name_len
    data_at = shape_at + 8 * ndim
    if len(body) < data_at:
        raise SerializationError("truncated array header")
    dtype = _peer_dtype(body[_NUMPY_HEAD.size:shape_at])
    if not dtype.itemsize:
        raise SerializationError(f"refusing array dtype {dtype}")
    shape = struct.unpack_from(f"<{ndim}Q", body, shape_at)
    # Before anything is allocated: the shape must account for exactly
    # the bytes that arrived.
    if math.prod(shape) * dtype.itemsize != len(body) - data_at:
        raise SerializationError(
            f"array shape {shape} of {dtype} does not match "
            f"{len(body) - data_at} payload bytes"
        )
    # Single copy: decode into writable bytearray-backed storage instead
    # of building a read-only frombuffer view and copying it again.
    storage = bytearray(body[data_at:])
    return np.frombuffer(storage, dtype=dtype).reshape(shape)


def _encode_numpy_scalar(value: np.generic) -> list:
    item = np.asarray(value)  # an empty ``np.str_`` is ``<U0`` but 4 bytes
    if item.dtype.fields is not None:
        raise SerializationError(f"structured numpy scalars ({item.dtype}) have no code")
    name = item.dtype.str.encode()
    return [bytes((len(name),)) + name + item.tobytes()]


def _decode_numpy_scalar(body: memoryview) -> np.generic:
    data_at = 1 + body[0]
    dtype = _peer_dtype(body[1:data_at])
    if dtype.itemsize != len(body) - data_at:
        raise SerializationError(f"numpy scalar of {dtype} in {len(body)} bytes")
    return np.ndarray((), dtype, bytes(body[data_at:]))[()]


def _named(name: str, body: bytes) -> list:
    raw = name.encode()
    try:
        return [_U16.pack(len(raw)) + raw + body]
    except struct.error:
        raise SerializationError(f"wire name too long: {name[:40]!r}...") from None


def _split_named(body: memoryview, what: str) -> tuple[str, bytes]:
    """``(name, rest)`` of a custom/migratable part. User hooks are
    promised real bytes (their contract predates memoryview framing)."""
    if len(body) < 2:
        raise SerializationError(f"truncated {what} frame")
    end = 2 + _U16.unpack_from(body)[0]
    if len(body) < end:
        raise SerializationError(f"truncated {what} frame")
    try:
        return str(body[2:end], "utf-8"), bytes(body[end:])
    except UnicodeDecodeError as exc:
        raise SerializationError(f"corrupt {what} name: {exc}") from exc


def _encode_custom(value: Any) -> list:
    name, encode, _decode = _CUSTOM[type(value)]
    try:
        return _named(name, encode(value))
    except Exception as exc:  # noqa: BLE001 - user hook failed
        raise SerializationError(f"custom serializer {name!r} failed: {exc}") from exc


def _decode_custom(body: memoryview) -> Any:
    name, rest = _split_named(body, "custom")
    decode = _CUSTOM_BY_NAME.get(name)
    if decode is None:
        raise SerializationError(f"no custom serializer named {name!r}")
    try:
        return decode(rest)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001 - user hook failed
        raise SerializationError(f"custom decoder {name!r} failed: {exc}") from exc


def _encode_migratable(value: Migratable) -> list:
    cls = type(value)
    return _named(f"{cls.__module__}:{cls.__qualname__}", value.__serialize__())


def _load_migratable_class(path: str) -> Type[Migratable]:
    # Only from a module already loaded: a peer's frame imports nothing.
    module_name, _, qualname = path.partition(":")
    obj: Any = sys.modules.get(module_name)
    if obj is None:
        raise SerializationError(
            f"cannot import migratable class {path!r}: module "
            f"{module_name!r} is not loaded here"
        )
    try:
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except AttributeError as exc:
        raise SerializationError(f"cannot import migratable class {path!r}") from exc
    if not (isinstance(obj, type) and issubclass(obj, Migratable)):
        raise SerializationError(f"{path!r} is not a Migratable subclass")
    return obj


def _decode_migratable(body: memoryview) -> Migratable:
    path, rest = _split_named(body, "migratable")
    cls = _load_migratable_class(path)
    try:
        return cls.__deserialize__(rest)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001 - user hook failed
        raise SerializationError(
            f"migratable decoder for {path!r} failed: {exc}"
        ) from exc


# -- containers: one items layout, five constructors ------------------------------
def _encode_items(value: Any, depth: int = 0) -> list:
    """Per item (a dict's keys and values in turn): its length word and
    its :func:`serialize` parts."""
    if depth == MAX_NESTING:
        raise SerializationError(f"containers nest deeper than {MAX_NESTING}")
    parts: list = []
    for item in chain.from_iterable(value.items()) if type(value) is dict else value:
        encoded = _value_parts(item, depth + 1)
        parts += (_ITEM_LENGTH.pack(_fits_length_word(encoded)), *encoded)
    return parts


def _decode_items(build: Callable[[list], Any], body: memoryview, depth: int = 0) -> Any:
    if depth == MAX_NESTING:
        raise SerializationError(f"containers nest deeper than {MAX_NESTING}")
    items, end = [], 0
    while end < len(body):
        start = end + _ITEM_LENGTH.size
        end = start + _ITEM_LENGTH.unpack_from(body, end)[0]
        if end > len(body):
            raise SerializationError("item runs past its container")
        items.append(deserialize(body, start, end, depth + 1))
    return build(items)


def _pairs(items: list) -> dict:
    return dict(zip(items[::2], items[1::2], strict=True))  # (raises on a lone key)


#: code -> (the exact type it carries, its fixed field: a scalar's
#: struct format or the length word of a variable part, and that part's
#: encoder and decoder).
_CODES: dict[bytes, tuple[Any, str, Any, Any]] = {
    b"i": (int, "q", None, None),
    b"d": (float, "d", None, None),
    b"?": (bool, "?", None, None),
    _NONE: (type(None), "", None, None),
    b"s": (str, _LENGTH, lambda value: [value.encode("utf-8", "surrogatepass")],
           lambda body: str(body, "utf-8", "surrogatepass")),
    b"b": (bytes, _LENGTH, lambda value: [value], bytes),
    b"B": (bytearray, _LENGTH, lambda value: [value], bytearray),
    b"j": (complex, _LENGTH, lambda value: [_COMPLEX_FIELDS.pack(value.real, value.imag)],
           lambda body: complex(*_COMPLEX_FIELDS.unpack(body))),
    b"W": (_WideInt, _LENGTH,
           lambda value: [value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)],
           lambda body: int.from_bytes(body, "little", signed=True)),
    _NUMPY: (None, _LENGTH, _encode_numpy, _decode_numpy),
    _NUMPY_SCALAR: (None, _LENGTH, _encode_numpy_scalar, _decode_numpy_scalar),
    _CUSTOM_CODE: (None, _LENGTH, _encode_custom, _decode_custom),
    _MIGRATABLE: (None, _LENGTH, _encode_migratable, _decode_migratable),
    b"T": (tuple, _LENGTH, _encode_items, partial(_decode_items, tuple)),
    b"L": (list, _LENGTH, _encode_items, partial(_decode_items, list)),
    b"S": (set, _LENGTH, _encode_items, partial(_decode_items, set)),
    b"F": (frozenset, _LENGTH, _encode_items, partial(_decode_items, frozenset)),
    b"D": (dict, _LENGTH, _encode_items, partial(_decode_items, _pairs)),
}
#: Exact type -> code, for the types the codec knows by themselves.
_CODE_OF_TYPE = {spec[0]: code for code, spec in _CODES.items() if spec[0]}
#: code (as the int a buffer indexes to) -> its fixed field.
_FIELD_OF_CODE = {code[0]: spec[1] for code, spec in _CODES.items()}
#: code -> (variable-part encoder, variable-part decoder).
_PART_CODEC = {code[0]: spec[2:] for code, spec in _CODES.items() if spec[2]}
#: The containers: their codecs take the nesting depth.
_NESTED = {code[0] for code, spec in _CODES.items() if spec[2] is _encode_items}
#: The scalars: exact type -> (code, fixed field).
SCALARS = {
    cls: (code, _FIELD_OF_CODE[code[0]])
    for cls, code in _CODE_OF_TYPE.items()
    if _FIELD_OF_CODE[code[0]] in _SCALAR_FIELDS
}
#: One scalar value: its code and its field in one ``pack``.
_ONE_SCALAR = {
    cls: (code, struct.Struct("<c" + field)) for cls, (code, field) in SCALARS.items()
}
_ONE_SCALAR_BY_CODE = {code[0]: packer for code, packer in _ONE_SCALAR.values()}


def _code_of(cls: type) -> bytes:
    """The code values of exactly this type travel under."""
    code = _CODE_OF_TYPE.get(cls)
    if code is not None:
        return code
    if cls in _CUSTOM:
        return _CUSTOM_CODE
    if issubclass(cls, Migratable):
        return _MIGRATABLE
    if issubclass(cls, np.ndarray):
        return _NUMPY
    if issubclass(cls, np.generic):
        return _NUMPY_SCALAR
    raise SerializationError(
        f"no wire code for {cls.__module__}.{cls.__qualname__}: give the type "
        "a register_serializer hook or make it Migratable"
    )


def _fits_length_word(parts: list) -> int:
    total = sum(map(len, parts))
    if total >> 32:
        raise SerializationError(f"value of {total} bytes exceeds the 4 GiB part limit")
    return total


# -- one value ---------------------------------------------------------------------
def _value_parts(value: Any, depth: int) -> list:
    """One value as buffers: its code, then its fixed field or its
    variable part (array data stays a view)."""
    cls = type(value)
    scalar = _ONE_SCALAR.get(cls)
    if scalar is not None:
        try:
            return [scalar[1].pack(scalar[0], value)]
        except struct.error:  # an int beyond 64 bits
            cls = _WideInt
    if value is None:
        return [_NONE]
    code = _code_of(cls)
    encode = _PART_CODEC[code[0]][0]
    return [code, *(encode(value, depth) if code[0] in _NESTED else encode(value))]


def serialize(value: Any) -> bytes:
    """Encode ``value`` into self-describing bytes: its code, then its
    fixed field or its variable part.

    Raises
    ------
    SerializationError
        If the value's type has no code (nested ones included), a hook
        fails or containers nest deeper than :data:`MAX_NESTING`.
    """
    scalar = _ONE_SCALAR.get(type(value))
    if scalar is not None:  # every RESULT of a scalar: one ``pack``
        try:
            return scalar[1].pack(scalar[0], value)
        except struct.error:  # an int beyond 64 bits
            pass
    elif value is None:
        return _NONE
    return b"".join(_value_parts(value, 0))


def deserialize(data: Any, start: int = 0, end: int | None = None, _depth: int = 0) -> Any:
    """Decode a value produced by :func:`serialize`.

    Accepts any bytes-like object and reads ``data[start:end]`` (all of
    it by default) in place; a variable part is decoded through a
    ``memoryview``, without an upfront copy. ``_depth`` is how deep a
    container's item sits.

    Raises
    ------
    SerializationError
        On unknown codes, truncated or oversized frames, too deep
        nesting and failing hooks — and nothing else.
    """
    if end is None:
        end = len(data)
    if start >= end:
        raise SerializationError("empty payload")
    code = data[start]
    packer = _ONE_SCALAR_BY_CODE.get(code)
    if packer is not None:  # every RESULT of a scalar: one ``unpack_from``
        if end - start != packer.size:
            raise SerializationError(
                f"scalar payload of {end - start} bytes, expected {packer.size}"
            )
        return packer.unpack_from(data, start)[1]
    if code == _NONE[0]:
        if end - start != 1:
            raise SerializationError("None payload with trailing bytes")
        return None
    codec = _PART_CODEC.get(code)
    if codec is None:
        raise SerializationError(f"unknown payload tag {bytes([code])!r}")
    body = memoryview(data)[start + 1:end]
    try:
        return codec[1](body, _depth) if code in _NESTED else codec[1](body)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001 - corrupt frame
        raise SerializationError(f"decode of tag {chr(code)!r} failed: {exc}") from exc


# -- an argument list ----------------------------------------------------------------
def _steps(codes: bytes, side: int) -> tuple[Any, ...]:
    """Per argument: its part encoder (``side`` 0) or decoder (1),
    ``None`` for a scalar, ``False`` for ``None`` (no field at all)."""
    return tuple(
        None if _FIELD_OF_CODE[code] in _SCALAR_FIELDS
        else _PART_CODEC[code][side] if _FIELD_OF_CODE[code] else False
        for code in codes
    )


def args_layout(types: tuple, names: tuple) -> tuple[bytes, str, tuple | None]:
    """The layout of one ``(argument types, keyword names)`` signature:
    its signature bytes, the ``struct`` format of its fixed fields, and
    per argument its part encoder (:func:`encode_parts`' ``steps``), or
    ``None`` when every argument is a scalar (the block is one ``pack``).
    """
    codes = b"".join(map(_code_of, types))
    try:
        signature = _SIG_COUNTS.pack(len(types) - len(names), len(names)) + codes
        for name in names:
            raw = name.encode("utf-8", "surrogatepass")
            signature += _U16.pack(len(raw)) + raw
    except struct.error:
        raise SerializationError(
            "argument list too long for the wire (65535 arguments, "
            "65535-byte keyword names)"
        ) from None
    fields = "".join(_FIELD_OF_CODE[code] for code in codes)
    if _SCALAR_FIELDS.issuperset(fields) and len(fields) == len(types):
        return signature, fields, None
    return signature, fields, _steps(codes, 0)


def encode_parts(steps: tuple, values: tuple) -> tuple[list, list, int]:
    """``(fixed fields, parts, nbytes)`` of ``values`` under ``steps``:
    the values of the fixed block (a length word for every variable
    part), and the variable parts after a ``b""`` placeholder for the
    packed block, ``nbytes`` long in all."""
    fixed: list = []
    parts: list = [b""]
    nbytes = 0
    for step, value in zip(steps, values):
        if step is None:
            fixed.append(value)
        elif step:
            encoded = step(value)
            size = _fits_length_word(encoded)
            fixed.append(size)
            nbytes += size
            parts += encoded
    return fixed, parts, nbytes


def wide_types(types: tuple, values: tuple) -> tuple:
    """``types`` with every ``int`` beyond 64 bits under its own code."""
    return tuple(
        _WideInt if cls is int and not -1 << 63 <= value < 1 << 63 else cls
        for cls, value in zip(types, values)
    )


def encode_args(values: tuple, names: tuple = ()) -> list:
    """Encode an argument list as wire buffers.

    ``values`` holds the positional arguments followed by one value per
    keyword name in ``names``. Array payloads stay :class:`memoryview`
    objects over the arrays' own storage. A value with no code raises
    :class:`SerializationError` here, before anything is sent. This is
    the INVOKE payload without its header; an offload sends it through
    the codec its image compiled (:meth:`ProcessImage.invoke_encoder`).
    """
    signature, fields, steps = args_layout(
        wide_types(tuple(map(type, values)), values), names)
    block = f"<{len(signature)}s{fields}"
    if steps is None:
        return [struct.pack(block, signature, *values)]
    fixed, parts, _nbytes = encode_parts(steps, values)
    parts[0] = struct.pack(block, signature, *fixed)
    return parts


def _compile_decoder(
    signature: bytes,
) -> tuple[Callable[[Any, int, int], tuple[tuple, dict]], bool]:
    """The decoder of one signature (validated here, once), and whether
    its block is scalars alone."""
    if len(signature) < _SIG_COUNTS.size:
        raise SerializationError("truncated argument signature")
    npos, nkw = _SIG_COUNTS.unpack_from(signature)
    at = _SIG_COUNTS.size + npos + nkw
    codes = signature[_SIG_COUNTS.size:at]
    if len(codes) != npos + nkw:
        raise SerializationError("truncated argument signature")
    names = []
    for _ in range(nkw):
        if len(signature) < at + 2:
            raise SerializationError("truncated argument signature")
        end = at + 2 + _U16.unpack_from(signature, at)[0]
        if len(signature) < end:
            raise SerializationError("truncated argument signature")
        try:
            names.append(str(signature[at + 2:end], "utf-8", "surrogatepass"))
        except UnicodeDecodeError as exc:
            raise SerializationError(f"corrupt keyword name: {exc}") from exc
        at = end
    if at != len(signature) or len(set(names)) != nkw:
        raise SerializationError("malformed argument signature")
    try:
        fields = "".join(_FIELD_OF_CODE[code] for code in codes)
    except KeyError as exc:
        raise SerializationError(
            f"unknown payload tag {bytes([exc.args[0]])!r} in signature"
        ) from None
    block = struct.Struct("<" + fields)

    if _SCALAR_FIELDS.issuperset(fields) and len(fields) == npos and not nkw:
        def decode_scalars(data: Any, start: int, end: int) -> tuple[tuple, dict]:
            if end - start != block.size:
                raise SerializationError(
                    f"argument block of {end - start} bytes, expected {block.size}"
                )
            return block.unpack_from(data, start), {}
        return decode_scalars, True

    steps = _steps(codes, 1)

    def decode(data: Any, start: int, end: int) -> tuple[tuple, dict]:
        at = start + block.size
        if at > end:
            raise SerializationError("truncated argument block")
        fixed = iter(block.unpack_from(data, start))
        view = memoryview(data)
        values = []
        for step in steps:
            if step is None:
                values.append(next(fixed))
            elif step is False:
                values.append(None)
            else:
                part_end = at + next(fixed)
                if part_end > end:
                    raise SerializationError("argument part runs past the payload")
                values.append(step(view[at:part_end]))
                at = part_end
        if at != end:
            raise SerializationError(f"{end - at} stray bytes after the arguments")
        return tuple(values[:npos]), dict(zip(names, values[npos:]))
    return decode, False


def decode_args(
    data: Any, start: int, end: int,
    resolve: Callable[[Any], Any] | None = None,
) -> tuple[tuple, dict[str, Any]]:
    """Decode the argument list in ``data[start:end]`` to ``(args, kwargs)``.

    ``data`` may be any bytes-like object and is read in place.
    ``resolve``, when given, maps every argument to the value the callee
    gets (a target's buffer pointers to views of its memory). A block of
    scalars alone holds nothing to map and is returned as decoded.

    Raises
    ------
    SerializationError
        On anything that is not a well-formed argument list.
    """
    if end - start < _SIG_COUNTS.size:
        raise SerializationError("truncated argument list")
    npos, nkw = _SIG_COUNTS.unpack_from(data, start)
    body = start + _SIG_COUNTS.size + npos + nkw
    if nkw:  # the signature ends after the last keyword name
        for _ in range(nkw):
            if body + 2 > end:
                raise SerializationError("truncated argument signature")
            body += 2 + _U16.unpack_from(data, body)[0]
    if body > end:
        raise SerializationError("truncated argument signature")
    signature = data[start:body]
    if signature.__class__ is not bytes:  # a view's slice: the key is bytes
        signature = bytes(signature)
    compiled = _DECODERS.get(signature)
    try:
        if compiled is None:
            compiled = _DECODERS.put(signature, _compile_decoder(signature))
        decoder, scalars_only = compiled
        args, kwargs = decoder(data, body, end)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001 - corrupt frame
        raise SerializationError(f"argument decode failed: {exc}") from exc
    if resolve is None or scalars_only:
        return args, kwargs
    args = tuple(map(resolve, args))
    if kwargs:
        kwargs = {name: resolve(value) for name, value in kwargs.items()}
    return args, kwargs
