"""Every ``Runtime.sync`` reads its own reply: no future.

A sync, and every attempt of a resilient one, holds a
window slot while ``Backend.sync_invoke`` posts and reads, and gives it
back. On ``local``, ``shm`` and ``tcp`` that builds no handle either,
traced or not; every other backend posts and waits on its handle. These
rows hold it to what the handle-and-future path did: a timed-out sync
keeps its slot and its expectation until the late reply, every failure
surfaces as it does through ``async_(...).get()``, a traced sync records
what a traced ``async_(...).get()`` does, and concurrent callers still
complete each other's replies. Targets are forked by ``init``; no
assertion reads a clock (waits carry a 10 s timeout only so a regression
fails instead of hanging).
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.backends import (
    DmaCommBackend,
    FanoutBackend,
    FaultInjectingBackend,
    LocalBackend,
    VeoCommBackend,
    create_backend,
)
from repro.errors import BackendError, OffloadTimeoutError, RemoteExecutionError
from repro.ham import f2f
from repro.offload import QoSConfig, ResiliencePolicy, Runtime, TenantPolicy
from repro.offload import api as offload_api
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

from tests import apps
from tests.callcount import profile_calls
from tests.offload.test_offload_budget import FRAMED_HOST_RECORDS, LOCAL_RECORDS

WAIT = 10.0


def _until(condition):
    deadline = time.monotonic() + WAIT
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def _settled(runtime):
    """No window slot held, nothing filed in the correlation table."""
    pending = getattr(runtime.backend, "_pending_count", lambda: 0)()
    return runtime.window.in_flight == 0 and pending == 0


def _next_init_works(transport):
    runtime = offload_api.init(transport)
    try:
        assert runtime.sync(1, f2f(apps.echo, "again")) == "again"
    finally:
        offload_api.finalize()


class _HeldDriveLock:
    """Another thread reads replies (holds the drive lock) meanwhile."""

    def __init__(self, backend):
        self._lock, self._release = backend._drive_lock, threading.Event()
        held = threading.Event()

        def hold():
            with self._lock:
                held.set()
                self._release.wait(WAIT)

        self._thread = threading.Thread(target=hold)
        self._thread.start()
        assert held.wait(WAIT)

    def release(self):
        self._release.set()
        self._thread.join(WAIT)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("reader", ["leader", "follower"])
def test_a_timed_out_sync_keeps_its_slot_until_the_late_reply(transport, reader):
    """Read inline (leader) or behind another reader (follower), a sync
    whose deadline passes leaves a handle for its reply: it holds the
    window slot — listed under ``handles`` now — until the reply lands,
    which is then matched, not counted as a stray."""
    runtime = offload_api.init(transport)
    backend = runtime.backend
    try:
        other = _HeldDriveLock(backend) if reader == "follower" else None
        try:
            with pytest.raises(OffloadTimeoutError) as timed_out:
                runtime.sync(1, f2f(apps.sleep_then, 0.2, "late"), timeout=0.05)
        finally:
            if other is not None:
                other.release()
        assert timed_out.value.handle is not None
        # Nobody reads now: the slot stays taken however late it is.
        assert runtime.window.in_flight == 1
        [held] = runtime.stats()["window"]["handles"]
        assert held["corr"] == timed_out.value.handle.correlation_id
        recorder = telemetry.enable()  # from here on a stray is counted
        try:
            assert _until(lambda: backend._poll() or runtime.window.in_flight == 0)
            counters = recorder.metrics.snapshot()["counters"]
            assert f"{transport}.unmatched_replies" not in counters
        finally:
            telemetry.disable()
        assert _settled(runtime)
        assert runtime.sync(1, f2f(apps.echo, 1)) == 1
    finally:
        offload_api.finalize()


@pytest.mark.parametrize("budget", ["timeout", "tenant-deadline"])
def test_a_sync_budget_bounds_its_wait_for_a_window_slot(budget):
    """Without a policy too, a sync's budget (``timeout``, or the
    tenant's ``deadline`` it turns into) bounds the wait for a slot and
    for the reply together: behind a slot nobody frees, it times out."""
    if budget == "timeout":
        runtime = Runtime(LocalBackend(), window=1)
        options = {"timeout": 0.2}
    else:
        qos = QoSConfig(tenants={"t": TenantPolicy(deadline=0.2)})
        runtime = Runtime(LocalBackend(), window=1, qos=qos)
        options = {"tenant": "t"}
    runtime.window.acquire()  # the one slot, not given back in time
    raised = []

    def sync():
        try:
            runtime.sync(1, f2f(apps.add, 1, 2), **options)
        except OffloadTimeoutError as exc:
            raised.append(exc)

    thread = threading.Thread(target=sync, daemon=True)
    thread.start()
    thread.join(WAIT)
    runtime.window.cancel()  # a sync still parked gets the slot now
    thread.join(WAIT)
    try:
        assert len(raised) == 1 and "window full" in str(raised[0])
        assert runtime.window.in_flight == runtime.window.queued == 0
    finally:
        runtime.shutdown()


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
class TestFailureParity:
    def test_a_raising_kernel_raises_what_a_future_raises(self, transport):
        runtime = offload_api.init(transport)
        try:
            with pytest.raises(RemoteExecutionError) as through_future:
                runtime.async_(1, f2f(apps.raise_value_error, "boom")).get()
            with pytest.raises(RemoteExecutionError) as plain:
                runtime.sync(1, f2f(apps.raise_value_error, "boom"))
            assert type(plain.value) is type(through_future.value)
            assert str(plain.value) == str(through_future.value)
            assert "raise_value_error" in plain.value.remote_traceback
            assert _settled(runtime)
        finally:
            offload_api.finalize()
        _next_init_works(transport)

    def test_a_frame_that_cannot_be_sent_is_a_failed_post(self, transport):
        runtime = offload_api.init(transport)
        flight = flightrecorder.get()
        try:
            runtime.backend.shutdown()  # the transport goes, the runtime stays
            noted = flight.noted
            functor = f2f(apps.echo, 1)
            with pytest.raises(BackendError):
                runtime.sync(1, functor)
            assert flight.noted > noted
            failed = [attrs for _ts, name, _category, attrs in flight.records()
                      if name == "offload.post_failed"]
            assert failed[-1] == {
                "node": 1, "functor": functor.type_name, "error": "BackendError",
            }
            assert _settled(runtime)
        finally:
            offload_api.finalize()
        _next_init_works(transport)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_a_target_killed_under_a_sync(transport):
    runtime = offload_api.init(transport)
    backend = runtime.backend
    try:
        pid = backend.introspect_target()["pid"]
        errors = []

        def blocked():
            try:
                runtime.sync(1, f2f(apps.sleep_then, 30.0, 0), timeout=WAIT)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        waiter = threading.Thread(target=blocked)
        waiter.start()
        assert _until(lambda: runtime.window.in_flight == 1)
        os.kill(pid, signal.SIGKILL)
        waiter.join(WAIT)
        assert not waiter.is_alive()
        [error] = errors
        assert isinstance(error, BackendError), error  # a timeout is not one
        assert _settled(runtime) and not backend._alive
    finally:
        offload_api.finalize()
    _next_init_works(transport)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("via", ["sync", "future"])
def test_a_killed_sync_is_settled_as_a_future_is(transport, via):
    """A sync that the target's death ends is settled as an error, as
    its future's ``get`` would be: its error trace is in the ring and it
    counts once in ``future.settled`` and the kernel's errors."""
    runtime = offload_api.init(transport, telemetry=True)
    recorder = telemetry.get()
    try:
        pid = runtime.backend.introspect_target()["pid"]
        functor = f2f(apps.sleep_then, 30.0, 0)
        errors = []

        def blocked():
            try:
                if via == "sync":
                    runtime.sync(1, functor, timeout=WAIT)
                else:
                    runtime.async_(1, functor).get(timeout=WAIT)
            except BackendError as exc:
                errors.append(exc)

        waiter = threading.Thread(target=blocked)
        waiter.start()
        assert _until(lambda: runtime.window.in_flight == 1)
        os.kill(pid, signal.SIGKILL)
        waiter.join(WAIT)
        assert not waiter.is_alive() and len(errors) == 1
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["future.settled"] == 1
        assert counters[f"kernel.{functor.type_name}.errors"] == 1
        [trace] = {span.trace_id for span in recorder.spans("offload.serialize")
                   if span.attrs["functor"] == functor.type_name}
        assert {span.name for span in recorder.spans()
                if span.trace_id == trace} >= {"offload.serialize",
                                               "offload.transport"}
    finally:
        offload_api.finalize()
        telemetry.disable()


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_eight_threads_mix_plain_syncs_with_futures(transport):
    """Every thread posts a future, syncs, then collects the future, while
    the interpreter switches threads every microsecond. Every value comes
    back to its caller; a sync that reads inline completes the futures'
    replies it meets; nothing is left in the window or the table."""
    runtime = offload_api.init(transport)
    backend = runtime.backend
    inline = threading.local()
    completed_inline = []
    consume, dispatch = backend._consume_inline, backend._dispatch_reply

    def consume_inline(*args):
        inline.active = True
        try:
            return consume(*args)
        finally:
            inline.active = False

    def dispatch_reply(op, corr, body):
        if getattr(inline, "active", False):
            completed_inline.append(corr)
        dispatch(op, corr, body)

    backend._consume_inline, backend._dispatch_reply = consume_inline, dispatch_reply
    failures = []

    def caller(index):
        try:
            for i in range(100):
                future = runtime.async_(1, f2f(apps.echo, (index, i, "future")))
                assert runtime.sync(1, f2f(apps.echo, (index, i))) == (index, i)
                assert future.get(timeout=WAIT) == (index, i, "future")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    try:
        # Alone first: the sync's reply comes behind the future's, so the
        # sync reads that one on its way and completes it.
        future = runtime.async_(1, f2f(apps.echo, "ahead"))
        assert runtime.sync(1, f2f(apps.echo, "behind")) == "behind"
        assert future._handle.completed and completed_inline
        assert future.get() == "ahead"
        threads = [threading.Thread(target=caller, args=(index,), daemon=True)
                   for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert _settled(runtime)
    finally:
        offload_api.finalize()


#: ``init`` options of each runtime configuration a sync must not build a
#: future in (``monitor``: a ``Runtime`` built with a default policy —
#: a health monitor, no deadline).
CONFIGS = {
    "plain": {},
    "traced": {"telemetry": {"sample_rate": 1.0}},
    "qos": {"qos": QoSConfig()},
    "policy": {"policy": ResiliencePolicy(deadline=WAIT)},
    "monitor": None,
}

#: Backends that post and wait on a handle: ``sync_invoke``'s default.
HANDLED = {
    "dma": lambda: DmaCommBackend(),
    "veo": lambda: VeoCommBackend(),
    "faulty-tcp": lambda: FaultInjectingBackend(create_backend("tcp")),
    "fanout-2xtcp": lambda: FanoutBackend(
        [create_backend("tcp"), create_backend("tcp")]),
}


def _warm_sync(runtime):
    """What one warm ``sync`` of ``echo(7)`` built, after ten of them."""
    for i in range(10):
        assert runtime.sync(1, f2f(apps.echo, i)) == i
    counts = profile_calls(lambda: runtime.sync(1, f2f(apps.echo, 7)))
    assert counts.value == 7
    assert runtime.window.in_flight == 0
    return counts.constructed


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_a_sync_builds_no_future_and_no_handle(transport, config):
    """A framed leader files no ``InvokeHandle``, even when traced."""
    options = CONFIGS[config]
    try:
        if options is None:
            runtime = Runtime(create_backend(transport), policy=ResiliencePolicy())
        else:
            runtime = offload_api.init(transport, **options)
        try:
            assert not {"Future", "InvokeHandle"} & set(_warm_sync(runtime))
        finally:
            if options is None:
                runtime.shutdown()
    finally:
        offload_api.finalize()
        telemetry.disable()


@pytest.mark.parametrize("backend", list(HANDLED))
def test_a_sync_on_a_handled_backend_builds_no_future(backend):
    runtime = Runtime(HANDLED[backend]())
    try:
        assert "Future" not in _warm_sync(runtime)
    finally:
        runtime.shutdown()


def _tree(recorder, offload):
    """``(name, parent's name)`` of every record one offload appends."""
    recorded = recorder.recorded
    offload()
    records = recorder.records()
    records = records[len(records) - (recorder.recorded - recorded):]
    names = {record.span_id: record.name for record in records}
    assert len({record.trace_id for record in records}) == 1
    return [(record.name, names.get(record.parent_id)) for record in records]


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_a_traced_sync_records_what_a_traced_future_does(transport):
    runtime = offload_api.init(transport, telemetry={"sample_rate": 1.0})
    try:
        recorder = telemetry.get()
        assert runtime.sync(1, f2f(apps.echo, 0)) == 0
        assert runtime.async_(1, f2f(apps.echo, 0)).get() == 0
        via_future = _tree(
            recorder, lambda: runtime.async_(1, f2f(apps.echo, 7)).get())
        via_sync = _tree(recorder, lambda: runtime.sync(1, f2f(apps.echo, 7)))
    finally:
        offload_api.finalize()
        telemetry.disable()
    assert via_sync == via_future
    assert len(via_sync) == (
        LOCAL_RECORDS if transport == "local" else FRAMED_HOST_RECORDS)
