"""The asyncio bridge: ``await future`` end to end.

Futures are awaitable (paper Table II ``future<T>`` + an event-loop
face): the running loop is the waiter — on a driven transport it reads
the reply itself — and a done-callback resumes the task. Semantics must
be identical to the blocking ``get`` — same values, same
remote-exception re-raise, same stays-pending behavior on abandonment.
"""

import asyncio

import pytest

from repro.backends import (
    DmaCommBackend,
    LocalBackend,
    TcpBackend,
    VeoCommBackend,
    create_backend,
    spawn_local_server,
)
from repro.errors import RemoteExecutionError
from repro.ham import f2f
from repro.offload import Runtime
from repro.offload.future import CompletedHandle, Future

from tests import apps

#: Bounds every await below, so a reply nobody reads fails the test
#: instead of hanging it.
WAIT = 10.0


@pytest.fixture()
def tcp_rt():
    process, address = spawn_local_server()
    backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
    runtime = Runtime(backend)
    yield runtime
    runtime.shutdown()
    if process.is_alive():  # pragma: no cover - cleanup safety
        process.terminate()


class TestAwaitOverTcp:
    def test_await_single(self, tcp_rt):
        async def main():
            return await tcp_rt.async_(1, f2f(apps.add, 40, 2))

        assert asyncio.run(main()) == 42

    def test_gather_many(self, tcp_rt):
        async def main():
            futures = [tcp_rt.async_(1, f2f(apps.add, i, 1)) for i in range(64)]
            return await asyncio.gather(*futures)

        assert asyncio.run(main()) == [i + 1 for i in range(64)]

    def test_await_reraises_remote_error(self, tcp_rt):
        async def main():
            await tcp_rt.async_(1, f2f(apps.raise_value_error, "awaited boom"))

        with pytest.raises(RemoteExecutionError, match="awaited boom"):
            asyncio.run(main())

    def test_await_done_future_is_immediate(self, tcp_rt):
        future = tcp_rt.async_(1, f2f(apps.add, 1, 1))
        assert future.get() == 2

        async def main():
            # Already settled: the awaitable short-circuits, no loop
            # round-trip, value from the cache.
            return await future

        assert asyncio.run(main()) == 2

    def test_cancelled_await_leaves_future_pending(self, tcp_rt):
        async def main():
            future = tcp_rt.async_(1, f2f(apps.sleep_then, 0.2, "late"))

            async def waiter():
                return await future

            task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # Abandoning the await is like a timed-out get: the reply
            # can still be collected afterwards.
            return future.get(timeout=10.0)

        assert asyncio.run(main()) == "late"

    def test_await_mixes_with_blocking_get(self, tcp_rt):
        async def main():
            first = tcp_rt.async_(1, f2f(apps.add, 1, 2))
            second = tcp_rt.async_(1, f2f(apps.add, 3, 4))
            return await first, second

        got, second = asyncio.run(main())
        assert got == 3
        assert second.get() == 7


@pytest.fixture(params=["local", "tcp", "shm", "dma", "veo"])
def any_rt(request):
    simulated = {"dma": DmaCommBackend, "veo": VeoCommBackend}
    if request.param in simulated:
        backend = simulated[request.param]()
        # A kernel that outlasts the first poll: only a driver finishes it.
        backend.kernel_cost_fn = lambda functor: 1e-3
    else:
        backend = create_backend(request.param)
    runtime = Runtime(backend)
    yield runtime
    runtime.shutdown()


class TestAwaitOnEveryBackend:
    """Nothing but the awaiting loop reads: on the simulators too, which
    advance only while somebody drives them."""

    def test_await_single(self, any_rt):
        async def main():
            return await asyncio.wait_for(
                any_rt.async_(1, f2f(apps.add, 40, 2)), WAIT)

        assert asyncio.run(main()) == 42

    def test_gather_many(self, any_rt):
        async def main():
            futures = [any_rt.async_(1, f2f(apps.add, i, 1)) for i in range(64)]
            return await asyncio.wait_for(asyncio.gather(*futures), WAIT)

        assert asyncio.run(main()) == [i + 1 for i in range(64)]

    def test_await_reraises_remote_error(self, any_rt):
        async def main():
            await asyncio.wait_for(
                any_rt.async_(1, f2f(apps.raise_value_error, "awaited boom")),
                WAIT)

        with pytest.raises(RemoteExecutionError, match="awaited boom"):
            asyncio.run(main())


class TestAwaitDegenerateHandles:
    def test_await_local_backend_future(self):
        runtime = Runtime(LocalBackend())
        try:

            async def main():
                # Local offloads complete at post time: the await path
                # must resolve without ever suspending.
                return await runtime.async_(1, f2f(apps.add, 2, 3))

            assert asyncio.run(main()) == 5
        finally:
            runtime.shutdown()

    def test_await_completed_handle_polls(self):
        # A CompletedHandle tests done: the await never suspends.
        future = Future(CompletedHandle("ready"))

        async def main():
            return await future

        assert asyncio.run(main()) == "ready"
