"""The coalescer's clock (``DeadlineTimer``): one thread, deadlines in order.

Each test runs a timer of its own — the process's ``DEADLINES`` belongs
to the tcp backends — and waits with a timeout, so a lost wake-up fails
the test instead of hanging it.
"""

import functools
import sys
import threading
import time

from repro.backends import base
from repro.backends.base import DeadlineTimer

WAIT = 10.0


def test_fires_in_order_skips_the_cancelled_and_stops_at_the_last_release():
    timer = DeadlineTimer()
    timer.attach()
    fired, done = [], threading.Event()
    try:
        assert not timer.stats()["alive"]  # started by the first deadline
        for name in "abc":
            timer.schedule(0.001, functools.partial(fired.append, name))
        timer.schedule(0.001, functools.partial(fired.append, "x")).cancel()
        timer.schedule(0.002, done.set)
        assert done.wait(WAIT)
        assert fired == ["a", "b", "c"]
        thread = timer._thread
        assert thread is not None and thread.name == "repro-timer"
    finally:
        timer.release()
    assert not thread.is_alive() and not timer.stats()["alive"]


def test_a_deadline_armed_on_an_idle_thread_wakes_it():
    """The thread sleeps with nothing armed; the next deadline, armed
    after the last one fired, is the one that wakes it."""
    timer = DeadlineTimer()
    timer.attach()
    first, second = threading.Event(), threading.Event()
    try:
        timer.schedule(0.001, first.set)
        assert first.wait(WAIT)
        deadline = time.monotonic() + WAIT
        while not timer._cond._waiters and time.monotonic() < deadline:
            time.sleep(0.001)  # until the thread sleeps on an empty queue
        timer.schedule(0.001, second.set)
        assert second.wait(WAIT)
    finally:
        timer.release()


def test_concurrent_arming_and_cancelling_loses_nothing():
    """Eight threads arm and cancel deadlines against one timer thread,
    the interpreter switching threads as often as it can: every live
    deadline fires once, and no cancelled one does. A cancel that comes
    too late (``cancel()`` returns ``False``: the timer had claimed the
    deadline) leaves it live."""
    timer = DeadlineTimer()
    timer.attach()
    fired, live, lock = [], [], threading.Lock()

    def record(key):
        with lock:
            fired.append(key)

    def arm(worker):
        for i in range(200):
            deadline = timer.schedule(0.0005, functools.partial(record, (worker, i)))
            if not (i % 3 and deadline.cancel()):
                with lock:
                    live.append((worker, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=arm, args=(w,)) for w in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(WAIT)
        assert not any(worker.is_alive() for worker in workers)
        deadline = time.monotonic() + WAIT
        while len(fired) < len(live) and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.01)  # one more deadline's worth: nothing extra fires
    finally:
        sys.setswitchinterval(interval)
        timer.release()
    assert sorted(fired) == sorted(live)
    assert timer.stats()["callback_errors"] == 0


def test_a_cancel_between_the_skip_and_the_pop_leaves_the_thread_alive(monkeypatch):
    """The timer thread skips cancelled deadlines, reads the clock, then
    pops the one due. A cancel that lands between the two (played here
    by the clock read itself) must leave the thread running: the
    cancelled deadline does not fire, and the next one does."""
    timer = DeadlineTimer()
    timer.attach()
    fired, done, cancelled = [], threading.Event(), []
    armed: list = []
    clock = time.monotonic

    def monotonic():
        if armed and threading.current_thread() is timer._thread:
            cancelled.append(armed.pop().cancel())
        return clock()

    monkeypatch.setattr(base.time, "monotonic", monotonic)
    try:
        with timer._cond:  # the thread looks only once the deadline is armed
            armed.append(timer.schedule(0.0, functools.partial(fired.append, "a")))
        deadline = time.monotonic() + WAIT
        while not cancelled and time.monotonic() < deadline:
            time.sleep(0.001)
        assert cancelled == [True]
        timer.schedule(0.0, done.set)
        assert done.wait(WAIT)
        assert fired == [] and timer.stats()["alive"]
    finally:
        timer.release()
