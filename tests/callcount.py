"""Count what a piece of code does instead of timing it.

``profile_calls(fn)`` runs ``fn()`` under ``sys.setprofile`` and reports
its calls (Python and builtin, the count ``cProfile`` reports), the locks
it took and the heavy constructs it built — the same verdict on a loaded
1-CPU box as on a quiet one. Used by the structural budgets
(``tests/offload/test_offload_budget.py``) and the disabled-telemetry
guards (``tests/telemetry/test_overhead.py``).
"""

import contextlib
import sys
import threading
from typing import Any, Callable, NamedTuple

from repro.backends.base import InvokeHandle
from repro.offload.future import Future

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))

#: Constructs a hot path must not build, by the code that builds them. A
#: plain sync reads its own reply: it needs no handle and no future.
_HEAVY = {
    contextlib._GeneratorContextManagerBase.__init__.__code__:
        "contextlib._GeneratorContextManager",
    threading.Event.__init__.__code__: "threading.Event",
    InvokeHandle.__init__.__code__: "InvokeHandle",
    Future.__init__.__code__: "Future",
}


class CallCounts(NamedTuple):
    #: Whatever ``fn`` returned.
    value: Any
    #: Python + builtin calls made by ``fn`` (its own frame excluded).
    calls: int
    #: Names of the Python functions among them, in call order.
    python: list[str]
    #: Heavy constructs built (see ``_HEAVY``).
    constructed: list[str]
    #: Locks taken. One taken by ``with`` is seen at its ``__exit__``
    #: (the interpreter enters it without a call event), one taken by
    #: hand at its ``acquire``.
    locks: int


def profile_calls(fn: Callable[[], Any]) -> CallCounts:
    calls = locks = 0
    python: list[str] = []
    constructed: list[str] = []

    def profiler(frame, event, arg):
        nonlocal calls, locks
        if event == "call":
            calls += 1
            python.append(frame.f_code.co_name)
            heavy = _HEAVY.get(frame.f_code)
            if heavy is not None:
                constructed.append(heavy)
        elif event == "c_call":
            calls += 1
            if (arg.__name__ in ("__exit__", "acquire")
                    and isinstance(arg.__self__, _LOCK_TYPES)):
                locks += 1

    sys.setprofile(profiler)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
    # ``fn``'s own frame and the closing ``sys.setprofile(None)`` are
    # reported too.
    return CallCounts(value, calls - 2, python[1:], constructed, locks)
