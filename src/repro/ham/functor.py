"""Functor binding — the ``f2f()`` construct of the HAM-Offload API.

``f2f(function, args...)`` (paper Table II: "function to functor
conversion") binds arguments to an *offloadable* function and yields a
:class:`Functor` the runtime can serialize into an active message. The
function must have been registered (decorated with
:func:`~repro.ham.registry.offloadable`) so that every process image knows
its message type.

Beyond the C++ original, keyword arguments are supported (``f2f(fn, x,
scale=2.0)``) — they serialize alongside the positional ones and are
applied on the target.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import HamError
from repro.ham.registry import Catalog, global_catalog, type_name_of
from repro.ham.serialization import decode_args, encode_args

__all__ = ["Functor", "f2f"]

#: The global catalog's function -> type name map.
_BY_FUNCTION = global_catalog().by_function


class Functor:
    """An offloadable closure: a message type plus bound arguments.

    Never modified once built, and equal and hashable by its three
    fields. Not a frozen dataclass: its ``__init__`` would store every
    field through ``object.__setattr__``, and ``f2f`` builds one per
    offload.

    Attributes
    ----------
    type_name:
        The globally comparable message-type name.
    args:
        The bound positional arguments.
    kwargs:
        The bound keyword arguments as a tuple of ``(name, value)``
        pairs (sorted by name when :func:`f2f` binds them).
    """

    __slots__ = ("type_name", "args", "kwargs")

    def __init__(
        self, type_name: str, args: tuple[Any, ...],
        kwargs: tuple[tuple[str, Any], ...] = (),
    ) -> None:
        self.type_name = type_name
        self.args = args
        self.kwargs = kwargs

    def _fields(self) -> tuple:
        return self.type_name, self.args, self.kwargs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(type_name={self.type_name!r}, "
                f"args={self.args!r}, kwargs={self.kwargs!r})")

    def serialize_args(self) -> bytes:
        """Encode the bound arguments for the wire (contiguous form)."""
        return b"".join(self.serialize_args_parts())

    def serialize_args_parts(self) -> list:
        """Encode the bound arguments as a list of wire buffers.

        One typed block per argument list (signature, packed fixed
        fields, variable parts — :func:`~repro.ham.serialization.encode_args`).
        Array payloads stay :class:`memoryview` objects over the arrays'
        own storage, so scatter-gather transports never copy them. An
        offload of a :class:`Functor` writes the same bytes through the
        INVOKE codec its image compiled; a subclass that overrides this
        method is sent with what it returns.
        """
        kwargs = self.kwargs
        if not kwargs:
            return encode_args(self.args)
        return encode_args(
            self.args + tuple(value for _name, value in kwargs),
            tuple(name for name, _value in kwargs),
        )

    @staticmethod
    def deserialize_args(data) -> tuple[tuple[Any, ...], dict[str, Any]]:
        """Decode bound arguments produced by :meth:`serialize_args`.

        Accepts any bytes-like object, read in place. Returns
        ``(args, kwargs)``.
        """
        return decode_args(data, 0, len(data))

    def execute(self, catalog: Catalog | None = None) -> Any:
        """Run the functor locally (host fallback / testing)."""
        cat = catalog if catalog is not None else global_catalog()
        return cat.function(self.type_name)(*self.args, **dict(self.kwargs))


def f2f(
    fn: Callable[..., Any], *args: Any, catalog: Catalog | None = None, **kwargs: Any
) -> Functor:
    """Bind ``args``/``kwargs`` to ``fn``, returning an offloadable functor.

    Raises
    ------
    HamError
        If ``fn`` is not registered as offloadable — mirroring the C++
        design where only functions going through the template machinery
        get an active-message type.
    """
    try:  # a registered function: its type name, derived once
        type_name = (_BY_FUNCTION if catalog is None else catalog.by_function)[fn]
    except (KeyError, TypeError):
        type_name = type_name_of(fn)
        if type_name not in (global_catalog() if catalog is None else catalog):
            raise HamError(
                f"{type_name!r} is not offloadable; decorate it with "
                "@offloadable (it must be importable on every process image)"
            ) from None
    return Functor(type_name, args, tuple(sorted(kwargs.items())) if kwargs else ())
