"""Message-type registry and cross-image handler-key translation.

This module reproduces the paper's Fig. 6 machinery. In the C++ original,
``f2f()`` triggers template instantiations that generate one active-message
type per offloaded function; a table of ``typeid`` names is built at
program initialization in *every* binary, sorted lexicographically, and the
sorted index becomes the globally valid handler key.

The Python equivalent:

* :func:`offloadable` registers a function in the process-wide
  :class:`Catalog` under a *type name* derived from its module-qualified
  name (our stand-in for the mangled ``typeid`` string);
* a :class:`ProcessImage` models one "binary": it snapshots the catalog,
  assigns image-local *handler addresses* (deliberately different between
  images, like code addresses in heterogeneous binaries), sorts the type
  names, and builds O(1) translation arrays
  ``key → local address → handler``.

Tests shuffle registration order and verify keys still agree across
images — the property the paper's scheme guarantees without any
communication.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import HamError, HandlerKeyError
from repro.ham import message, serialization

__all__ = ["Catalog", "ProcessImage", "global_catalog", "offloadable", "type_name_of"]


def type_name_of(fn: Callable[..., Any]) -> str:
    """The globally comparable "typeid name" of an offloadable function.

    Mirrors the mangled-symbol names both C++ compilers agree on (the
    paper relies on Itanium-ABI-compatible name mangling): the
    module-qualified name is identical in every process importing the
    same application source.
    """
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", repr(fn))
    return f"{module}::{qualname}"


class Catalog:
    """The process-wide set of offloadable functions.

    Corresponds to what static initializers collect in each C++ binary.
    Separate catalogs can be created for tests; applications normally use
    :func:`global_catalog`.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Any]] = {}
        #: Every function registered under its own :func:`type_name_of`,
        #: to that name: what ``f2f`` looks up.
        self.by_function: dict[Callable[..., Any], str] = {}

    def register(self, fn: Callable[..., Any], name: str | None = None) -> str:
        """Register ``fn``; returns its type name.

        Re-registering the *same* function is idempotent; registering a
        different function under an existing name is an error (two
        distinct message types may not share a typeid).
        """
        derived = type_name_of(fn)
        type_name = name or derived
        existing = self._functions.get(type_name)
        if existing is not None and existing is not fn:
            raise HamError(
                f"type name {type_name!r} already registered for a "
                "different function"
            )
        self._functions[type_name] = fn
        if type_name == derived:
            try:
                self.by_function[fn] = type_name
            except TypeError:  # an unhashable callable: f2f derives its name
                pass
        return type_name

    def names(self) -> list[str]:
        """Registered type names in registration order."""
        return list(self._functions)

    def function(self, type_name: str) -> Callable[..., Any]:
        """The function behind a type name."""
        try:
            return self._functions[type_name]
        except KeyError:
            raise HamError(f"no offloadable registered as {type_name!r}") from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._functions

    def __len__(self) -> int:
        return len(self._functions)


_GLOBAL_CATALOG = Catalog()


def global_catalog() -> Catalog:
    """The default process-wide catalog used by :func:`offloadable`."""
    return _GLOBAL_CATALOG


def offloadable(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Decorator: mark a function as remotely executable.

    The function is registered in the global catalog under its
    module-qualified type name, the analogue of the C++ template
    instantiation chain triggered by ``f2f()`` (paper Sec. III-C). The
    function itself is returned unchanged, so it stays callable locally.
    """
    _GLOBAL_CATALOG.register(fn)
    return fn


@dataclass(frozen=True)
class _Entry:
    """One row of an image's message handler table (paper Fig. 6)."""

    type_name: str
    local_address: int
    handler: Callable[..., Any]


class ProcessImage:
    """One "binary" of the application: types + translation tables.

    Parameters
    ----------
    name:
        Image label (``"vh"``, ``"ve"``, ``"host-x86"``, ...). It seeds
        the image-local addresses so two images never agree on addresses —
        modeling heterogeneous binaries where code addresses differ.
    catalog:
        The catalog to snapshot; defaults to the global one.

    Notes
    -----
    The image must be *finalized* (:meth:`build_tables`) before keys can
    be translated; registering after finalization invalidates the tables,
    mirroring the C++ design where the tables are fixed after program
    initialization. Finalization is idempotent and cheap, so runtimes call
    it lazily.
    """

    _address_space = itertools.count(0x4000_0000)

    def __init__(self, name: str, catalog: Catalog | None = None) -> None:
        self.name = name
        self.catalog = catalog if catalog is not None else _GLOBAL_CATALOG
        self._entries: dict[str, _Entry] = {}
        self._sorted_names: list[str] = []
        self._by_key: list[_Entry] = []
        self._key_of: dict[str, int] = {}
        self._finalized = False
        #: First use may come from several threads at once (a fresh
        #: runtime under concurrent posters): one of them builds.
        self._build_lock = threading.Lock()
        #: The compiled INVOKE encoder of each ``(type name, argument
        #: types, keyword names, traced)``: :meth:`invoke_encoder`.
        self.invoke_encoders = serialization.encoder_cache()
        # Image-local address salt: distinct per image instance.
        self._address_base = next(self._address_space) * 0x1000

    # -- building ---------------------------------------------------------
    def snapshot_catalog(self) -> None:
        """Pull every catalog function into the image's handler table."""
        for type_name in self.catalog.names():
            self._add_entry(type_name, self.catalog.function(type_name))

    def _add_entry(self, type_name: str, fn: Callable[..., Any]) -> None:
        if type_name not in self._entries:
            local_address = self._address_base + len(self._entries) * 0x40
            self._entries[type_name] = _Entry(type_name, local_address, fn)
            self._finalized = False
            self.invoke_encoders.clear()  # they hold the old keys

    def build_tables(self) -> None:
        """Sort type names and build the O(1) translation arrays.

        Lexicographic order is identical in every image holding the same
        type set, so the sorted index is the globally valid handler key —
        no communication needed (paper Sec. III-E).
        """
        if self._finalized:
            return
        with self._build_lock:
            if self._finalized:
                return
            if not self._entries:
                self.snapshot_catalog()
            self._sorted_names = sorted(self._entries)
            self._by_key = [self._entries[n] for n in self._sorted_names]
            self._key_of = {n: k for k, n in enumerate(self._sorted_names)}
            self._finalized = True

    # -- queries ------------------------------------------------------------
    @property
    def num_types(self) -> int:
        """Number of registered message types."""
        return len(self._entries)

    def key_for(self, type_name: str) -> int:
        """Globally valid handler key of a type name.

        Raises
        ------
        HandlerKeyError
            If the type is unknown to this image.
        """
        if not self._finalized:
            self.build_tables()
        try:
            return self._key_of[type_name]
        except KeyError:
            raise HandlerKeyError(
                f"image {self.name!r} has no message type {type_name!r}"
            ) from None

    def invoke_encoder(
        self, type_name: str, types: tuple, names: tuple, traced: bool
    ) -> Callable[..., list]:
        """The INVOKE encoder of ``type_name`` called with arguments of
        ``types`` and keyword ``names``, its header of version 2 when
        ``traced`` (:func:`~repro.ham.message.compile_invoke`), compiled
        on first use and kept in :attr:`invoke_encoders`.

        Raises
        ------
        HandlerKeyError
            If the type is unknown to this image.
        SerializationError
            If an argument type has no wire code.
        """
        signature = (type_name, types, names, traced)
        encoder = self.invoke_encoders.get(signature)
        if encoder is None:
            encoder = self.invoke_encoders.put(signature, message.compile_invoke(
                self.key_for(type_name), types, names, traced))
        return encoder

    def entry_for_key(self, key: int) -> _Entry:
        """Translate a received key to the local table row (O(1))."""
        if not self._finalized:
            self.build_tables()
        if not 0 <= key < len(self._by_key):
            raise HandlerKeyError(
                f"image {self.name!r}: handler key {key} outside table "
                f"of {len(self._by_key)} entries"
            )
        return self._by_key[key]

    def handler_for_key(self, key: int) -> Callable[..., Any]:
        """The local handler function behind a received key (O(1))."""
        return self.entry_for_key(key).handler

    def local_address_of(self, type_name: str) -> int:
        """The image-local "code address" of a type's handler.

        Only meaningful within this image — the point of the whole
        translation exercise.
        """
        self.build_tables()
        entry = self._entries.get(type_name)
        if entry is None:
            raise HandlerKeyError(
                f"image {self.name!r} has no message type {type_name!r}"
            )
        return entry.local_address

    def type_names(self) -> list[str]:
        """Type names in key order (sorted)."""
        self.build_tables()
        return list(self._sorted_names)

    def digest(self) -> bytes:
        """Fingerprint of the image's type set and of the value codec.

        Two images translate keys consistently — and read each other's
        arguments — **iff** their digests match; backends exchange it at
        connection time to fail fast on mismatched "binaries" instead of
        silently dispatching to wrong handlers or mis-parsing.
        """
        import hashlib

        self.build_tables()
        return hashlib.sha256(
            "\n".join(
                [f"codec {serialization.CODEC_REVISION}", *self._sorted_names]
            ).encode()
        ).digest()
