"""Futures and the invoke handles under them.

``InvokeHandle`` keeps a plain completion flag and creates its
``threading.Event`` only for a waiter that actually has to block; these
tests pin the completion contract that rewrite must keep — in either
order of wait and completion, from any thread, with no lost wake-up.
"""

import queue
import sys
import threading

import pytest

from repro.backends.base import InvokeHandle
from repro.errors import BackendError, FutureError, OffloadTimeoutError
from repro.ham.message import MSG_RESULT, build_message
from repro.ham.serialization import serialize
from repro.offload.future import CompletedHandle, Future

from tests.offload.stubs import ThreadedStubBackend

REPLY = build_message(MSG_RESULT, 0, 0, serialize(42))


@pytest.fixture
def backend():
    return ThreadedStubBackend()


class TestFutureEdgeCases:
    def test_completed_handle_error_replays(self):
        future = Future(CompletedHandle(error=ValueError("stored")))
        with pytest.raises(ValueError, match="stored"):
            future.get()
        with pytest.raises(ValueError, match="stored"):
            future.get()  # error is cached, not lost

    def test_test_then_get(self):
        future = Future(CompletedHandle(41))
        assert future.test()
        assert future.get() == 41

    def test_detached_future_raises(self):
        future = Future(CompletedHandle(1))
        future._handle = None
        future._done = False
        with pytest.raises(FutureError):
            future.get()


class TestInvokeHandleCompletion:
    def test_complete_before_wait_needs_no_event(self, backend):
        handle = InvokeHandle(backend, label="early")
        assert not handle.completed
        handle.complete_with_reply(REPLY)
        assert handle.completed
        assert handle.wait_event(0) is True
        assert handle.wait() == 42
        assert handle._event is None  # nobody ever had to block

    def test_error_completion_raises_from_wait(self, backend):
        handle = InvokeHandle(backend)
        handle.complete_with_error(BackendError("wire fell off"))
        assert handle.completed
        with pytest.raises(BackendError, match="wire fell off"):
            handle.wait()

    def test_wait_before_complete_from_second_thread(self, backend):
        handle = InvokeHandle(backend, label="late")
        waiting = threading.Event()
        results = []

        def waiter():
            waiting.set()
            results.append(handle.wait(timeout=10.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        assert waiting.wait(10.0)
        handle.complete_with_reply(REPLY)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert results == [42]

    def test_wait_event_timeout_expires_then_completes(self, backend):
        handle = InvokeHandle(backend)
        assert handle.wait_event(0.01) is False
        assert not handle.completed
        with pytest.raises(OffloadTimeoutError):
            handle.wait(timeout=0.01)  # soft: the handle stays pending
        handle.complete_with_reply(REPLY)
        assert handle.wait_event(0.01) is True
        assert handle.wait() == 42

    def test_done_callback_before_completion_fires_on_completion(self, backend):
        handle = InvokeHandle(backend)
        seen = []
        handle.add_done_callback(lambda h: seen.append((h, h.completed)))
        assert seen == []
        completer = threading.Thread(target=handle.complete_with_reply, args=(REPLY,))
        completer.start()
        completer.join(timeout=10.0)
        assert seen == [(handle, True)]

    def test_done_callback_after_completion_fires_immediately(self, backend):
        handle = InvokeHandle(backend)
        handle.complete_with_reply(REPLY)
        seen = []
        handle.add_done_callback(lambda h: seen.append(threading.get_ident()))
        assert seen == [threading.get_ident()]

    def test_raising_callback_does_not_poison_completion(self, backend):
        handle = InvokeHandle(backend)
        seen = []
        handle.add_done_callback(lambda h: 1 / 0)
        handle.add_done_callback(seen.append)
        handle.complete_with_reply(REPLY)
        assert seen == [handle]
        assert handle.wait() == 42

    def test_future_over_a_pending_handle(self, backend):
        handle = InvokeHandle(backend)
        future = Future(handle, label="f")
        assert future.correlation_id == handle.correlation_id
        assert not future.test()
        with pytest.raises(OffloadTimeoutError):
            future.get(timeout=0.01)
        handle.complete_with_reply(REPLY)
        assert future.test()
        assert future.get() == 42
        assert future.correlation_id is None  # settled: handle released

    def test_no_lost_wakeup_under_two_thread_stress(self, backend):
        """2 000 handles, waiter and completer racing on every one.

        The waiter may find the handle done, may create its event just
        before the completer publishes, or may block first: in every
        interleaving ``wait_event`` must return True. A lost wake-up
        shows as a 10 s timeout, so the test is time-bounded.
        """
        handles: "queue.SimpleQueue[InvokeHandle | None]" = queue.SimpleQueue()
        callbacks = []

        def completer():
            for handle in iter(handles.get, None):
                handle.complete_with_reply(REPLY)

        thread = threading.Thread(target=completer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            for i in range(2000):
                handle = InvokeHandle(backend)
                if i % 2:
                    handles.put(handle)
                    handle.add_done_callback(callbacks.append)
                else:
                    handle.add_done_callback(callbacks.append)
                    handles.put(handle)
                assert handle.wait_event(10.0), f"lost wake-up at iteration {i}"
                assert handle.completed
        finally:
            handles.put(None)
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert len(callbacks) == 2000
