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

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import HamError
from repro.ham.registry import Catalog, global_catalog, type_name_of
from repro.ham.serialization import decode_args, encode_args

__all__ = ["Functor", "f2f"]


@dataclass(frozen=True)
class Functor:
    """An offloadable closure: a message type plus bound arguments.

    Attributes
    ----------
    type_name:
        The globally comparable message-type name.
    args:
        The bound positional arguments.
    kwargs:
        The bound keyword arguments as a sorted tuple of ``(name, value)``
        pairs (kept as a tuple so the functor stays a frozen value type).
    """

    type_name: str
    args: tuple[Any, ...]
    kwargs: tuple[tuple[str, Any], ...] = ()

    def serialize_args(self) -> bytes:
        """Encode the bound arguments for the wire (contiguous form)."""
        return b"".join(self.serialize_args_parts())

    def serialize_args_parts(self) -> list:
        """Encode the bound arguments as a list of wire buffers.

        One typed block per argument list (signature, packed fixed
        fields, variable parts — :func:`~repro.ham.serialization.encode_args`),
        through the codec compiled for this list's types. Array payloads
        stay :class:`memoryview` objects over the arrays' own storage, so
        scatter-gather transports never copy them.
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
    cat = catalog if catalog is not None else global_catalog()
    type_name = type_name_of(fn)
    if type_name not in cat:
        raise HamError(
            f"{type_name!r} is not offloadable; decorate it with "
            "@offloadable (it must be importable on every process image)"
        )
    return Functor(
        type_name=type_name,
        args=args,
        kwargs=tuple(sorted(kwargs.items())) if kwargs else (),
    )
