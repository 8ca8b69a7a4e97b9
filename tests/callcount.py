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
from typing import Any, Callable, Iterable, NamedTuple

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


class CallCounter:
    """What :func:`profile_calls` counts, over a stretch of code that is
    not one call: from :meth:`start` to :meth:`stop`, on the calling
    thread. Nothing the ``probes`` (the functions that start and stop
    the count) call directly is counted, nor their own calls, nor what
    :meth:`stop` does; a call to one of the ``opaque`` functions counts
    as one, and nothing it calls is counted."""

    def __init__(self, *, probes: Iterable[Callable] = (),
                 opaque: Iterable[Callable] = ()) -> None:
        self._skip = {f.__code__ for f in probes} | {CallCounter.stop.__code__}
        self._hidden = {f.__code__ for f in opaque}
        self._depth = 0  # opaque frames open
        self.calls = self.locks = 0
        self.python: list[str] = []
        self.constructed: list[str] = []

    def _profile(self, frame, event, arg):
        code = frame.f_code
        if self._depth:
            if code in self._hidden:
                if event == "call":
                    self._depth += 1
                elif event == "return":
                    self._depth -= 1
            return
        if code in self._skip:
            return
        if event == "call":
            self.calls += 1
            self.python.append(code.co_name)
            heavy = _HEAVY.get(code)
            if heavy is not None:
                self.constructed.append(heavy)
            if code in self._hidden:
                self._depth = 1
        elif event == "c_call":
            self.calls += 1
            if (arg.__name__ in ("__exit__", "acquire")
                    and isinstance(arg.__self__, _LOCK_TYPES)):
                self.locks += 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self, value: Any = None) -> CallCounts:
        """End the count; ``value`` is what the counts carry."""
        sys.setprofile(None)
        return CallCounts(value, self.calls, self.python, self.constructed,
                          self.locks)


def profile_calls(fn: Callable[[], Any], *,
                  opaque: Iterable[Callable] = ()) -> CallCounts:
    """Count what ``fn()`` does. A call to one of the ``opaque``
    functions counts as one, and nothing it calls is counted: a wait
    (a ring's spin laps, its sleeps, its liveness checks) costs the
    other side's time, not the caller's path."""
    counter = CallCounter(opaque=opaque)
    counter.start()
    try:
        value = fn()
    finally:
        counts = counter.stop()
    # ``fn``'s own call is reported too.
    return counts._replace(value=value, calls=counts.calls - 1,
                           python=counts.python[1:])
