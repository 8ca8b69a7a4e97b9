"""Lazy package namespaces (PEP 562): a package's re-exports are imported
on first access, so a process loads the modules it uses and no others.

The four package ``__init__`` modules (``repro``, ``repro.backends``,
``repro.offload``, ``repro.telemetry``) declare *where* each public
name lives and bind the two hooks this module builds::

    __getattr__, __dir__ = lazy_exports(
        __name__, globals(), {"repro.backends.base": ("Backend", ...)}
    )

``pkg.Name`` then imports the defining module once and caches the value
in the package namespace; ``pkg.submodule`` imports that submodule, so
``import repro.telemetry as t; t.export`` keeps working without an
explicit ``import repro.telemetry.export``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    exports: Mapping[str, Sequence[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__`` / ``__dir__`` for ``package``.

    ``exports`` maps a defining module to the names re-exported from it;
    ``namespace`` is the package's ``globals()``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif name.startswith("_"):
            # Dunder probes (``__wrapped__``, ``__path__`` ...) and
            # private modules are not worth a file-system search.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise  # the submodule exists; one of *its* imports failed
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
