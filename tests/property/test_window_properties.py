"""Property: the in-flight window serves parked acquires in arrival order.

Hypothesis draws interleavings of acquires, cancels, registrations,
releases and resizes against one :class:`InflightWindow`, and a plain
model says what each step must leave behind: how many slots are held,
who is parked, and in which order. An acquire the model cannot grant at
once parks on a thread of its own, and the step waits until the window
counts it parked, so arrival order is step order; an
``acquire(timeout=0)`` must take a slot exactly when the model has one
free and nobody parked. After every step:

* grants follow arrival order: each waiter the model granted (always
  the oldest parked) has returned from ``acquire``, the others have not;
* no waiter is lost or granted twice: ``queued`` is the model's parked
  count and ``in_flight`` its held slots, and once every slot is handed
  back every waiter has returned.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import InflightWindow, InvokeHandle
from repro.errors import OffloadTimeoutError

#: Bound of every wait: long enough never to expire on a green run.
WAIT = 10.0

steps = st.lists(
    st.one_of(
        # Acquires twice as often: queues form, and a freed slot has
        # several waiters to choose from.
        st.tuples(st.sampled_from(
            ["acquire", "acquire", "try", "cancel", "register"])),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("resize"), st.integers(1, 4)),
    ),
    max_size=24,
)


def _until(condition) -> bool:
    deadline = time.monotonic() + WAIT
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.0005)
    return condition()


class _Run:
    """One window, its model, and the threads parked in it."""

    def __init__(self, limit: int) -> None:
        self.window = InflightWindow(limit)
        self.limit = limit
        self.reserved = 0  # slots acquired and not registered
        self.handles: list[InvokeHandle] = []
        self.parked: deque[int] = deque()  # waiter ids, oldest first
        self.granted: list[int] = []
        self.returned: list[threading.Event] = []
        self.threads: list[threading.Thread] = []

    def _room(self) -> bool:
        return self.reserved + len(self.handles) < self.limit

    def _grant(self) -> None:
        while self.parked and self._room():
            self.granted.append(self.parked.popleft())
            self.reserved += 1

    def _park(self) -> None:
        returned = threading.Event()

        def waiter() -> None:
            self.window.acquire(timeout=WAIT)
            returned.set()

        self.returned.append(returned)
        thread = threading.Thread(target=waiter, daemon=True)
        self.threads.append(thread)
        thread.start()
        self.parked.append(len(self.returned) - 1)
        assert _until(lambda: self.window.queued == len(self.parked))

    def step(self, op: str, arg: int = 0) -> None:
        window = self.window
        if op == "acquire":
            if self.parked or not self._room():
                self._park()
            else:
                window.acquire(timeout=0)
                self.reserved += 1
        elif op == "try":
            if self.parked or not self._room():
                with pytest.raises(OffloadTimeoutError):
                    window.acquire(timeout=0)
            else:
                window.acquire(timeout=0)
                self.reserved += 1
        elif op == "cancel" and self.reserved:
            window.cancel()
            self.reserved -= 1
        elif op == "register" and self.reserved:
            handle = InvokeHandle(None)
            window.register(handle)
            self.reserved -= 1
            self.handles.append(handle)
        elif op == "release" and self.handles:
            handle = self.handles.pop(arg % len(self.handles))
            window.release(handle)
            window.release(handle)  # a second release frees nothing
        elif op == "resize":
            window.set_limit(arg)
            self.limit = arg
        self._grant()

    def _returned(self) -> list[int]:
        return [waiter for waiter, returned in enumerate(self.returned)
                if returned.is_set()]

    def check(self) -> None:
        assert self.window.queued == len(self.parked)
        assert _until(lambda: len(self._returned()) >= len(self.granted))
        assert self._returned() == sorted(self.granted)
        assert self.window.in_flight == self.reserved + len(self.handles)

    def drain(self) -> None:
        """Hand every slot back until nobody is parked or holds one."""
        while self.handles or self.reserved:
            self.step("release" if self.handles else "cancel")
            self.check()
        for thread in self.threads:
            thread.join(WAIT)
        assert not any(thread.is_alive() for thread in self.threads)
        assert self.window.in_flight == self.window.queued == 0


class TestFifoWindow:
    @given(limit=st.integers(1, 2), plan=steps)
    @settings(max_examples=60, deadline=None)
    def test_grants_follow_arrival_order_and_none_is_lost(self, limit, plan):
        run = _Run(limit)
        try:
            for step in plan:
                run.step(*step)
                run.check()
            run.drain()
        finally:
            run.window.set_limit(1_000)  # frees any thread a failure stranded
