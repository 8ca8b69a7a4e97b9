"""Structural budget of one default-path offload — no clock is read.

With telemetry off, no ``ResiliencePolicy`` and no ``QoSConfig``, one
``sync`` on the in-process backend is pure framework overhead: the layer
whose cost is added to *every* offload on every transport. What "free
when off" promises there is structural (docs/observability.md): no
generator context manager, no ``threading.Event``, no lock taken to
compute a value that is thrown away, and a bounded number of calls. This
test counts those things under ``sys.setprofile`` instead of timing
them, so it gives the same verdict on a loaded 1-CPU box as on a quiet
one; the wall-clock figures live in ``perfbench`` (``sync_local``).
"""

import contextlib
import sys
import threading

from repro.backends import LocalBackend
from repro.ham import f2f
from repro.offload import Runtime
from repro.telemetry import recorder as telemetry

from tests import apps

#: Calls (Python + builtin, the count ``cProfile`` reports) of one warm
#: ``sync(1, f2f(add, 1, 2))``: 185 on CPython 3.11 after ISSUE 12, 308
#: before it. The slack (~5 %) absorbs interpreter-version differences;
#: raise it only together with a perfbench run that shows the cost.
MAX_CALLS = 195

#: acquire + register + release.
MAX_WINDOW_LOCK_ACQUISITIONS = 3


def _warm_runtime() -> Runtime:
    assert not telemetry.enabled()
    runtime = Runtime(LocalBackend())
    for _ in range(50):
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
    return runtime


def _profile_one_offload(runtime: Runtime) -> tuple[int, list[str]]:
    """``(calls, constructed)`` of one offload, via ``sys.setprofile``."""
    banned = {
        contextlib._GeneratorContextManagerBase.__init__.__code__:
            "contextlib._GeneratorContextManager",
        threading.Event.__init__.__code__: "threading.Event",
    }
    calls = 0
    constructed: list[str] = []

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            name = banned.get(frame.f_code)
            if name is not None:
                constructed.append(name)
        elif event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        value = runtime.sync(1, f2f(apps.add, 1, 2))
    finally:
        sys.setprofile(None)
    assert value == 3
    # The closing ``sys.setprofile(None)`` is itself reported.
    return calls - 1, constructed


class _CountingLock:
    """Stands in for ``InflightWindow._lock`` and counts acquisitions."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        self.acquisitions += bool(acquired)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestDefaultPathBudget:
    def test_call_budget_and_no_heavy_constructs(self):
        runtime = _warm_runtime()
        try:
            calls, constructed = _profile_one_offload(runtime)
        finally:
            runtime.shutdown()
        assert constructed == []
        assert calls <= MAX_CALLS, (
            f"one default-path offload made {calls} calls (budget "
            f"{MAX_CALLS}): something on the shared host path got more "
            "expensive — see tests/offload/test_offload_budget.py"
        )

    def test_window_lock_taken_three_times(self):
        runtime = _warm_runtime()
        window = runtime.backend.window
        counting = window._lock = _CountingLock(window._lock)
        try:
            assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3
        finally:
            runtime.shutdown()
        assert window.in_flight == 0
        # in_flight above is the test's own, fourth, acquisition.
        assert counting.acquisitions - 1 <= MAX_WINDOW_LOCK_ACQUISITIONS

    def test_budget_profiler_sees_the_banned_constructs(self):
        """The detector itself works: it reports what it is meant to ban."""

        @contextlib.contextmanager
        def scope():
            yield

        class _Chatty:
            def sync(self, node, functor):
                with scope():
                    threading.Event()
                return 3

        calls, constructed = _profile_one_offload(_Chatty())
        assert constructed == [
            "contextlib._GeneratorContextManager", "threading.Event",
        ]
        assert calls > 0
