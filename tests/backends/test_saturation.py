"""Tier-2 saturation: thousands of offloads in flight on one thread.

The acceptance bar for the event-loop refactor: one process sustains
>= 5k concurrent in-flight offloads with **zero** receiver threads per
connection — replies read by whoever waits, or by the one asyncio loop
that awaits them all, every reply matched by correlation id, every
future settled.

Heavyweight (several seconds, ~10k live futures), so gated behind
``REPRO_TIER2=1`` and the ``tier2`` marker; tier-1 CI never runs it.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.ham import f2f
from repro.offload import Runtime

from tests import apps

pytestmark = pytest.mark.tier2

if not os.environ.get("REPRO_TIER2"):
    pytest.skip(
        "tier-2 saturation tests need REPRO_TIER2=1", allow_module_level=True
    )

DEPTH = 10_000
WORKERS = 8
FLOOR = 5_000


@pytest.fixture()
def rt():
    process, address = spawn_local_server(workers=WORKERS)
    backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=10))
    runtime = Runtime(backend, window=DEPTH)
    yield runtime
    runtime.shutdown()
    if process.is_alive():  # pragma: no cover - cleanup safety
        process.terminate()


def test_10k_in_flight_single_thread(rt):
    backend = rt.backend
    # Pin every server worker on a long sleep so the remaining posts
    # pile up: in-flight depth is then deterministic, not a race
    # between client posting rate and server drain rate.
    pinned = [rt.async_(1, f2f(apps.sleep_then, 3.0, n)) for n in range(WORKERS)]
    quick = [
        rt.async_(1, f2f(apps.add, i, 1)) for i in range(DEPTH - WORKERS)
    ]
    backend._coalescer.flush()  # everything on the wire now

    in_flight = rt.window.in_flight
    assert in_flight >= FLOOR, f"only {in_flight} offloads in flight"

    # Zero receiver threads: whoever waits reads the socket.
    stats = backend.stats()
    names = [t.name for t in threading.enumerate()]
    assert not any("tcp-receiver" in name for name in names)

    # Introspection works *through the saturated connection*: the
    # control plane shares the wire with 10k queued invokes.
    snapshot = backend.introspect_target(timeout=30.0)
    assert snapshot["pending_invokes"] + snapshot["workers"]["active"] >= FLOOR

    deadline = time.monotonic() + 120.0
    values = []
    for future in quick:
        values.append(future.get(timeout=max(0.0, deadline - time.monotonic())))
    assert values == [i + 1 for i in range(DEPTH - WORKERS)]
    assert [f.get(timeout=30.0) for f in pinned] == list(range(WORKERS))

    batch = stats["batch"]
    assert batch["frames_coalesced"] >= DEPTH
    assert batch["avg_batch_frames"] > 1.0, "saturation never coalesced"


def test_10k_awaited_futures_one_loop(rt):
    """The asyncio bridge at depth: every future awaited, one loop."""

    async def main():
        futures = [
            rt.async_(1, f2f(apps.add, i, 2)) for i in range(DEPTH)
        ]
        return await asyncio.gather(*futures)

    values = asyncio.run(main())
    assert values == [i + 2 for i in range(DEPTH)]
    names = [t.name for t in threading.enumerate()]
    assert not any("receiver" in name for name in names)
