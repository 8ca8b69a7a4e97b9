"""Single-threaded I/O reactor — the client-side event-loop core.

One daemon thread per process for what a client transport cannot do on
a caller's stack: the coalescing layer arms sub-millisecond flush
deadlines, and while an awaited future has a done-callback armed its
transport has the loop read replies — a TCP socket registers a read
callback, the shm backend a backstop poll timer. It receives nothing
for callers that wait; those read their own replies
(:mod:`repro.backends._client`).

Design notes:

* **selectors-based.** ``selectors.DefaultSelector`` (epoll on Linux)
  in level-triggered mode: a readable callback is invoked once per
  wakeup and re-invoked while data remains, so callbacks may read a
  bounded chunk and return — no draining loops required.
* **Self-pipe wakeup.** Cross-thread submissions (:meth:`call_soon`,
  :meth:`call_later`, fd registration) append to a queue and poke a
  pipe, so a blocked ``select`` wakes immediately; everything that
  touches the selector or the timer heap executes *on* the loop
  thread, which keeps both structures lock-free from the loop's point
  of view.
* **Timer heap.** :meth:`call_later` returns a cancellable handle.
  Timer lag (scheduled-vs-actual fire time) is the loop's health
  signal, exported as the ``reactor.loop_lag_us`` gauge: a lagging
  loop means some callback is hogging the thread.
* **Refcounted process singleton.** Backends share one loop via
  :func:`get_reactor` / :func:`release_reactor`; the thread stops when
  the last backend detaches, so test suites that churn through
  hundreds of backends do not leak threads. A fork (spawning a target
  server) resets the child's singleton — the loop thread does not
  survive ``fork`` and the child must never inherit a dead one.
"""

from __future__ import annotations

import heapq
import itertools
import os
import selectors
import threading
from time import monotonic
from typing import Any, Callable

from repro.telemetry import recorder as telemetry

__all__ = ["Reactor", "TimerHandle", "get_reactor", "release_reactor"]


class TimerHandle:
    """Cancellable deadline callback returned by :meth:`Reactor.call_later`."""

    __slots__ = ("when", "_seq", "_callback", "_cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]) -> None:
        self.when = when
        self._seq = seq
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        """Best-effort cancellation (a firing in progress still runs)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self._seq) < (other.when, other._seq)


class Reactor:
    """One thread, one selector, all client-side I/O.

    File-descriptor callbacks take no arguments and are invoked on the
    loop thread whenever the fd is readable; they must not block. Timer
    and ``call_soon`` callbacks run on the loop thread too. Exceptions
    escaping any callback are counted (``stats()["callback_errors"]``) and
    swallowed — a broken connection must not take down the loop that
    serves every other connection.
    """

    def __init__(self, name: str = "repro-reactor") -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._lock = threading.Lock()
        self._ops: list[Callable[[], None]] = []
        self._timers: list[TimerHandle] = []
        self._seq = itertools.count()
        self._running = True
        self._registered = 0
        #: Loop-health counters (see :meth:`stats`).
        self.wakeups = 0
        self.timer_fires = 0
        self.callback_errors = 0
        self.max_lag_us = 0.0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    # -- cross-thread submission ------------------------------------------------
    def on_thread(self) -> bool:
        """Whether the caller *is* the loop thread."""
        return threading.current_thread() is self._thread

    def _wakeup(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except OSError:  # pragma: no cover - loop already closed
            pass

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop thread as soon as possible."""
        with self._lock:
            self._ops.append(callback)
        self._wakeup()

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` on the loop thread after ``delay`` seconds."""
        handle = TimerHandle(monotonic() + max(0.0, delay), next(self._seq), callback)
        if self.on_thread():
            heapq.heappush(self._timers, handle)
        else:
            def _arm() -> None:
                heapq.heappush(self._timers, handle)
            with self._lock:
                self._ops.append(_arm)
            self._wakeup()
        return handle

    def register(self, fileobj: Any, callback: Callable[[], None]) -> None:
        """Register a read callback for ``fileobj`` (any thread)."""
        def _do() -> None:
            self._selector.register(fileobj, selectors.EVENT_READ, callback)
            self._registered += 1
        self._submit_sync(_do)

    def unregister(self, fileobj: Any) -> None:
        """Drop ``fileobj`` from the loop; safe to close it afterwards.

        Blocks (briefly) until the loop has actually forgotten the fd,
        so the caller can close it without racing a concurrent
        ``select`` on the same descriptor.
        """
        def _do() -> None:
            try:
                self._selector.unregister(fileobj)
                self._registered -= 1
            except (KeyError, ValueError):
                pass  # never registered, or already gone
        self._submit_sync(_do)

    def _submit_sync(self, op: Callable[[], None]) -> None:
        """Run ``op`` on the loop thread and wait for it to finish."""
        if self.on_thread() or not self._thread.is_alive():
            op()
            return
        done = threading.Event()

        def _wrapped() -> None:
            try:
                op()
            finally:
                done.set()
        with self._lock:
            self._ops.append(_wrapped)
        self._wakeup()
        done.wait(timeout=5.0)

    # -- the loop ---------------------------------------------------------------
    def _run(self) -> None:
        while self._running:
            timeout = None
            if self._timers:
                timeout = max(0.0, self._timers[0].when - monotonic())
            try:
                events = self._selector.select(timeout)
            except OSError:  # pragma: no cover - fd closed under us
                events = []
            self.wakeups += 1
            # Pending cross-thread ops first: they may register the very
            # fds/timers this iteration should service.
            if self._ops:
                with self._lock:
                    ops, self._ops = self._ops, []
                for op in ops:
                    self._invoke(op)
            now = monotonic()
            while self._timers and self._timers[0].when <= now:
                timer = heapq.heappop(self._timers)
                if timer.cancelled:
                    continue
                lag_us = (now - timer.when) * 1e6
                if lag_us > self.max_lag_us:
                    self.max_lag_us = lag_us
                telemetry.gauge("reactor.loop_lag_us", lag_us)
                self.timer_fires += 1
                self._invoke(timer._callback)
            for key, _mask in events:
                if key.data is None:  # the wakeup pipe
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                self._invoke(key.data)

    def _invoke(self, callback: Callable[[], None]) -> None:
        try:
            callback()
        except Exception:  # noqa: BLE001 - the loop must survive any callback
            self.callback_errors += 1

    # -- lifecycle ---------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._running and self._thread.is_alive()

    def close(self) -> None:
        """Stop the loop thread and release the selector and pipes."""
        if not self._running:
            return
        self._running = False
        self._wakeup()
        if not self.on_thread():
            self._thread.join(timeout=5.0)
        try:
            self._selector.close()
        except OSError:  # pragma: no cover
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def stats(self) -> dict[str, Any]:
        """Loop-health counters for introspection."""
        return {
            "thread": self._thread.name,
            "alive": self.alive,
            "registered_fds": self._registered,
            "pending_timers": len(self._timers),
            "wakeups": self.wakeups,
            "timer_fires": self.timer_fires,
            "callback_errors": self.callback_errors,
            "max_lag_us": round(self.max_lag_us, 1),
        }


# -- the refcounted process-wide loop -------------------------------------------

_global_lock = threading.Lock()
_global_reactor: Reactor | None = None
_global_refs = 0


def get_reactor() -> Reactor:
    """Attach to the process-wide reactor, starting it if needed.

    Every ``get_reactor`` must be paired with one
    :func:`release_reactor`; the loop thread stops when the last user
    detaches.
    """
    global _global_reactor, _global_refs
    with _global_lock:
        if _global_reactor is None or not _global_reactor.alive:
            _global_reactor = Reactor()
            _global_refs = 0
        _global_refs += 1
        return _global_reactor


def release_reactor(reactor: Reactor) -> None:
    """Detach from the shared reactor; stops it on the last release."""
    global _global_reactor, _global_refs
    with _global_lock:
        if reactor is not _global_reactor:
            reactor.close()  # a stale (pre-fork or replaced) instance
            return
        _global_refs -= 1
        if _global_refs <= 0:
            _global_refs = 0
            _global_reactor = None
            reactor.close()


def _reset_after_fork() -> None:  # pragma: no cover - exercised via spawn
    """Forget the parent's loop in a forked child.

    The loop thread does not survive ``fork``; a child (e.g. a spawned
    target server) that ever touched the reactor would otherwise
    inherit a dead thread and a selector full of the parent's fds.
    """
    global _global_reactor, _global_refs
    _global_reactor = None
    _global_refs = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
