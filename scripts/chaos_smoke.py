#!/usr/bin/env python
"""Seeded randomized-fault soak against a live transport backend.

Drives a live offload stack — a forked target server over real sockets
(``--backend tcp``, default) or over shared-memory SPSC rings
(``--backend shm``) — through a :class:`FaultInjectingBackend` for a
wall-clock duration, checking the resilience layer's two core promises:

* **zero hangs** — every operation completes or raises within its
  deadline (a watchdog thread hard-exits if the loop stops ticking);
* **no unraised corruption** — every injected fault surfaces as a typed
  :class:`ReproError` subclass, and every data roundtrip that *didn't*
  raise must read back exactly what was written.

Exit status: 0 on a clean soak, 1 on unraised corruption or an untyped
error, 2 on a hang (watchdog). Same seed, same schedule: failures
reproduce.

A second mode, ``--noisy-tenant``, soaks the QoS layer instead of the
fault injector: one best-effort tenant floods a QoS-enabled runtime
while a premium tenant keeps a modest request rate, and the run fails
unless the premium tenant's p99 latency holds, the fleet's round trips
hold the same bound with at most 1 % failed (read from the recorder's
kernel histogram and failure counters), and the rejection counter shows
the noisy tenant's rate limit took effect.

A third mode, ``--async``, runs the fault soak from a single asyncio
event loop: every offload is *awaited* through ``Future.__await__``
rather than collected with a blocking ``get``, proving the awaitable
surface holds the same promises (typed errors, no hangs, no unraised
corruption) under the same fault schedule. Composes with ``--backend``.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py --seed 7 --duration 30
    PYTHONPATH=src python scripts/chaos_smoke.py --backend shm --duration 30
    PYTHONPATH=src python scripts/chaos_smoke.py --async --duration 20
    PYTHONPATH=src python scripts/chaos_smoke.py --noisy-tenant --duration 20
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
import traceback
import warnings
from collections import Counter

import numpy as np

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.backends import (
    FaultInjectingBackend,
    ShmBackend,
    TcpBackend,
    spawn_local_server,
    spawn_shm_server,
)
from repro.errors import ReproError
from repro.ham import f2f
from repro.offload import ResiliencePolicy, Runtime

from tests import apps  # the offloadable catalog shared with the fork


def build_stack(seed: int, args: argparse.Namespace):
    """Spawn a fresh server + faulty transport backend + resilient runtime."""
    if args.backend == "shm":
        process, segment = spawn_shm_server(
            startup_timeout=args.deadline * 10
        )
        transport = ShmBackend(
            segment,
            alive_fn=process.is_alive,
            on_shutdown=lambda: process.join(timeout=5),
        )
    else:
        process, address = spawn_local_server(
            startup_timeout=args.deadline * 10
        )
        transport = TcpBackend(
            address, on_shutdown=lambda: process.join(timeout=5)
        )
    faulty = FaultInjectingBackend(
        transport,
        seed=seed,
        drop_rate=args.drop,
        delay_rate=args.delay,
        disconnect_rate=args.disconnect,
        corrupt_rate=args.corrupt,
        delay_range=(0.0, min(0.05, args.deadline / 4)),
    )
    policy = ResiliencePolicy(
        deadline=args.deadline,
        max_retries=2,
        backoff_base=0.01,
        backoff_max=0.1,
        seed=seed,
        down_after=5,
        probe_interval=0.2,
    )
    runtime = Runtime(faulty, policy=policy)
    return process, transport, faulty, runtime


def failures_recorded(recorder) -> int:
    """The recorder's failure counters, summed: every kernel's
    ``kernel.<k>.errors``, ``future.timeouts`` and
    ``offload.issue_failures``."""
    counters = recorder.metrics.snapshot()["counters"]
    return sum(
        value for name, value in counters.items()
        if name.startswith("kernel.") and name.endswith(".errors")
        or name in ("future.timeouts", "offload.issue_failures")
    )


def teardown_stack(process, runtime) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)  # chaos leaks buffers
        try:
            runtime.shutdown()
        except ReproError:
            pass
    if process.is_alive():
        process.terminate()
        process.join(timeout=5)


def run_noisy_tenant(args: argparse.Namespace) -> int:
    """Overload soak: a flooding tenant must not hurt the premium one.

    Stack: live TCP server + QoS runtime with a small window and a
    rate limit on the noisy tenant. Several best-effort worker threads
    flood it; one premium thread keeps a steady, modest rate. Pass
    criteria:

    * premium p99 latency under ``--premium-p99`` seconds;
    * the fleet's p99, every admitted round trip of either tenant as
      ``kernel.<k>.offload`` holds it, under the same bound;
    * failed round trips (``kernel.<k>.errors`` + ``future.timeouts``)
      at most 1 % of the admitted offloads. A rejected offload made no
      round trip, so the rate limit saying no counts as no failure;
    * the noisy tenant was admission-rejected at least once — otherwise
      the flood never reached its rate limit and the run proved nothing.
    """
    from repro.errors import AdmissionRejectedError
    from repro.offload import QoSConfig, TenantPolicy
    from repro.telemetry import recorder as telemetry

    recorder = telemetry.enable()
    functor = f2f(apps.sleep_then, 0.002, 0)
    kernel = functor.type_name

    config = QoSConfig(tenants={
        "premium": TenantPolicy(),
        "noisy": TenantPolicy(rate=400.0, burst=50.0),
    })
    process, address = spawn_local_server(startup_timeout=30.0)
    tcp = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
    runtime = Runtime(tcp, window=4, qos=config)

    stop = threading.Event()
    premium_latencies: list[float] = []
    noisy_outcomes: Counter[str] = Counter()
    failures: list[str] = []

    def noisy_worker() -> None:
        while not stop.is_set():
            try:
                runtime.sync(1, functor, tenant="noisy", timeout=args.deadline)
                noisy_outcomes["ok"] += 1
            except AdmissionRejectedError as exc:
                noisy_outcomes[type(exc).__name__] += 1
                # Misbehaving clients retry fast, but not busy-spin
                # fast; keeps the soak an overload test, not a CPU burn.
                time.sleep(0.001)
            except ReproError as exc:
                noisy_outcomes[type(exc).__name__] += 1

    def premium_worker() -> None:
        while not stop.is_set():
            start = time.monotonic()
            try:
                runtime.sync(1, functor, tenant="premium",
                             timeout=args.deadline)
            except ReproError as exc:
                failures.append(type(exc).__name__)
            else:
                premium_latencies.append(time.monotonic() - start)
            # A paying customer's steady trickle, not a flood.
            time.sleep(0.01)

    workers = [threading.Thread(target=noisy_worker, daemon=True)
               for _ in range(8)]
    workers.append(threading.Thread(target=premium_worker, daemon=True))
    for worker in workers:
        worker.start()
    time.sleep(args.duration)
    stop.set()
    for worker in workers:
        worker.join(timeout=args.deadline * 4)
    stats = runtime.stats()
    teardown_stack(process, runtime)

    admission = stats["qos"]["admission"]
    rejected = admission.get("noisy", {}).get("rejected", 0)
    admitted = sum(tenant["admitted"] for tenant in admission.values())
    p99 = (
        float(np.percentile(premium_latencies, 99))
        if premium_latencies else float("inf")
    )
    fleet_p99 = recorder.kernel_offload(kernel).percentile(99)
    bad = (recorder.kernel_errors[kernel].value
           + recorder.counters["future.timeouts"].value)

    print(
        f"noisy-tenant soak: premium ops={len(premium_latencies)} "
        f"p99={p99 * 1e3:.1f} ms, premium failures={len(failures)}, "
        f"noisy outcomes={dict(noisy_outcomes)}, "
        f"noisy rejected={rejected}", flush=True,
    )
    print(
        f"fleet: {bad}/{admitted} admitted round trips failed, "
        f"p99={fleet_p99 * 1e3:.1f} ms", flush=True,
    )

    if not premium_latencies:
        print("NOISY-TENANT FAIL: premium tenant completed no operations")
        return 1
    if fleet_p99 > args.premium_p99:
        print(
            f"NOISY-TENANT FAIL: fleet p99 {fleet_p99 * 1e3:.1f} ms exceeds "
            f"the {args.premium_p99 * 1e3:.0f} ms bound"
        )
        return 1
    if bad > 0.01 * admitted:
        print(
            f"NOISY-TENANT FAIL: {bad} of {admitted} admitted round trips "
            "failed, more than 1 %"
        )
        return 1
    if p99 > args.premium_p99:
        print(
            f"NOISY-TENANT FAIL: premium p99 {p99 * 1e3:.1f} ms exceeds "
            f"the {args.premium_p99 * 1e3:.0f} ms bound"
        )
        return 1
    if rejected == 0:
        print(
            "NOISY-TENANT FAIL: no noisy offload was rejected — the flood "
            "never reached its rate limit, the run proved nothing"
        )
        return 1
    print("noisy-tenant soak OK: premium and fleet p99 held, failures "
          "under 1 %, the noisy tenant's rate limit took effect", flush=True)
    return 0


def run_async_soak(args: argparse.Namespace) -> int:
    """Fault soak driven entirely from one asyncio event loop.

    Same live stack as the default mode, but no blocking ``get``
    anywhere: each wave posts a handful of offloads and awaits them
    concurrently through ``Future.__await__``. The awaited path has no
    retry loop to hide a dropped frame behind, so every await carries a
    bounded timeout; a timed-out wave (or a dead transport) makes the
    supervisor recycle the whole stack, exactly like the sync loop does
    when the transport is poisoned — leaked window slots from abandoned
    awaits cannot accumulate across epochs.

    Pass criteria mirror the sync soak: zero hangs (watchdog), zero
    unraised corruption, every fault surfaced as a typed
    :class:`ReproError` (or a counted await timeout).
    """
    import asyncio

    last_tick = [time.monotonic()]
    hang_budget = args.deadline * 10 + 10.0

    def watchdog() -> None:
        while True:
            time.sleep(1.0)
            stall = time.monotonic() - last_tick[0]
            if stall > hang_budget:
                print(
                    f"WATCHDOG: async soak stalled for {stall:.1f} s — HANG",
                    flush=True,
                )
                os._exit(2)

    threading.Thread(target=watchdog, daemon=True).start()

    rng = np.random.default_rng(args.seed)
    surfaced: Counter[str] = Counter()
    stack = build_stack(args.seed, args)
    epoch = args.seed
    respawns = 0
    ops = 0

    async def settle(future):
        return await future

    async def soak() -> int:
        nonlocal stack, epoch, respawns, ops
        deadline_end = time.monotonic() + args.duration
        while time.monotonic() < deadline_end:
            last_tick[0] = time.monotonic()
            process, transport, faulty, runtime = stack
            width = 4 + int(rng.integers(5))
            pairs = [
                (int(rng.integers(1000)), int(rng.integers(1000)))
                for _ in range(width)
            ]
            futures = []
            try:
                for a, b in pairs:
                    futures.append(runtime.async_(1, f2f(apps.add, a, b)))
            except ReproError as exc:
                # Posting itself can raise under faults (open circuit,
                # poisoned transport); the posted prefix still settles.
                # Unlike runtime.sync there is no retry loop backing
                # off for us, so breathe before the next wave rather
                # than busy-spinning against an open circuit.
                surfaced[type(exc).__name__] += 1
                await asyncio.sleep(0.05)
            outcomes = await asyncio.gather(
                *(
                    asyncio.wait_for(settle(f), timeout=args.deadline * 4)
                    for f in futures
                ),
                return_exceptions=True,
            )
            ops += len(futures)
            timed_out = False
            wave_errors = False
            for (a, b), outcome in zip(pairs, outcomes):
                if isinstance(outcome, asyncio.TimeoutError):
                    surfaced["AwaitTimeout"] += 1
                    timed_out = True
                elif isinstance(outcome, ReproError):
                    surfaced[type(outcome).__name__] += 1
                    wave_errors = True
                elif isinstance(outcome, BaseException):
                    print("UNTYPED ERROR escaped the awaited path:")
                    traceback.print_exception(
                        type(outcome), outcome, outcome.__traceback__
                    )
                    return 1
                elif outcome != a + b:
                    print(
                        f"UNRAISED CORRUPTION: awaited add({a},{b}) "
                        f"-> {outcome}"
                    )
                    return 1
            if timed_out or not transport._alive:
                teardown_stack(process, runtime)
                epoch += 1
                respawns += 1
                stack = build_stack(epoch, args)
            elif wave_errors:
                faulty.reconnect()
        return 0

    try:
        code = asyncio.run(soak())
    finally:
        process, _transport, _faulty, runtime = stack
        teardown_stack(process, runtime)

    if code == 0:
        print(
            f"async chaos smoke OK: {ops} awaited ops in "
            f"{args.duration:.0f} s on {args.backend}, {respawns} respawns, "
            f"surfaced errors: {dict(surfaced) or 'none'}"
        )
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        choices=("tcp", "shm"),
        default="tcp",
        help="live transport under the fault injector: tcp sockets or "
        "the shared-memory SPSC-ring backend (default tcp)",
    )
    parser.add_argument("--duration", type=float, default=30.0, help="soak seconds")
    parser.add_argument("--deadline", type=float, default=1.0, help="per-op deadline")
    parser.add_argument("--drop", type=float, default=0.05)
    parser.add_argument("--delay", type=float, default=0.05)
    parser.add_argument("--disconnect", type=float, default=0.02)
    parser.add_argument("--corrupt", type=float, default=0.03)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace of the soak (spans, faults, retries) here",
    )
    parser.add_argument(
        "--assert-faults-recorded",
        action="store_true",
        help="fail (exit 1) unless the injected faults show in the "
        "recorder's failure counters (kernel.<k>.errors, future.timeouts, "
        "offload.issue_failures)",
    )
    parser.add_argument(
        "--crash-dir",
        default=None,
        help="arm the flight recorder to dump crash bundles here, "
        "SIGKILL the target server once mid-soak (a real injected peer "
        "death, on top of the fault schedule), and fail (exit 1) unless "
        "the death left a readable crash bundle behind",
    )
    parser.add_argument(
        "--async",
        dest="async_soak",
        action="store_true",
        help="drive the fault soak from one asyncio event loop: every "
        "offload awaited through Future.__await__ instead of a blocking "
        "get (composes with --backend tcp|shm)",
    )
    parser.add_argument(
        "--noisy-tenant",
        action="store_true",
        help="overload soak instead of fault injection: a best-effort "
        "tenant floods a QoS runtime and the premium tenant's p99 must "
        "hold (see run_noisy_tenant)",
    )
    parser.add_argument(
        "--premium-p99",
        type=float,
        default=0.25,
        help="premium-tenant p99 latency bound in seconds "
        "(--noisy-tenant mode)",
    )
    args = parser.parse_args()

    if args.noisy_tenant:
        return run_noisy_tenant(args)
    if args.async_soak:
        return run_async_soak(args)

    if args.crash_dir:
        from repro.telemetry import flightrecorder

        flightrecorder.configure(args.crash_dir)

    recorder = None
    if args.trace_out or args.assert_faults_recorded:
        from repro.telemetry import recorder as telemetry

        recorder = telemetry.enable()

    last_tick = [time.monotonic()]
    hang_budget = args.deadline * 10 + 10.0

    def watchdog() -> None:
        while True:
            time.sleep(1.0)
            stall = time.monotonic() - last_tick[0]
            if stall > hang_budget:
                print(f"WATCHDOG: soak loop stalled for {stall:.1f} s — HANG", flush=True)
                os._exit(2)

    threading.Thread(target=watchdog, daemon=True).start()

    rng = np.random.default_rng(args.seed)
    process, transport, faulty, runtime = build_stack(args.seed, args)
    deadline_end = time.monotonic() + args.duration
    ops = 0
    respawns = 0
    surfaced: Counter[str] = Counter()
    epoch = args.seed
    target_killed = False

    try:
        while time.monotonic() < deadline_end:
            last_tick[0] = time.monotonic()
            if (
                args.crash_dir
                and not target_killed
                and time.monotonic() > deadline_end - args.duration / 2
            ):
                # Injected peer death: SIGKILL the live target mid-soak.
                # The client's receiver must detect the death, fail the
                # pending futures and dump a flight-recorder bundle; the
                # respawn path below then recycles the stack as usual.
                process.kill()
                target_killed = True
            step = ops % 7
            ops += 1
            try:
                if step in (0, 1, 2, 3):
                    a, b = int(rng.integers(1000)), int(rng.integers(1000))
                    result = runtime.sync(1, f2f(apps.add, a, b), idempotent=True)
                    if result != a + b:
                        print(f"UNRAISED CORRUPTION: add({a},{b}) -> {result}")
                        return 1
                elif step == 4:
                    data = rng.random(256)
                    ptr = runtime.allocate(1, data.size)
                    try:
                        runtime.put(data, ptr)
                        back = np.empty_like(data)
                        runtime.get(ptr, back)
                        if not np.array_equal(back, data):
                            print("UNRAISED CORRUPTION: put/get roundtrip mismatch")
                            return 1
                    finally:
                        try:
                            runtime.free(ptr)
                        except ReproError as exc:
                            surfaced[type(exc).__name__] += 1
                elif step == 5:
                    futures = [
                        runtime.async_(1, f2f(apps.add, i, 1)) for i in range(4)
                    ]
                    for i, future in enumerate(futures):
                        if future.get(timeout=args.deadline) != i + 1:
                            print("UNRAISED CORRUPTION: async pipeline mismatch")
                            return 1
                else:
                    runtime.heartbeat()
            except ReproError as exc:
                surfaced[type(exc).__name__] += 1
                faulty.reconnect()
                if not transport._alive:
                    # The transport was poisoned (or the server died):
                    # recycle the whole stack, like a supervisor would.
                    teardown_stack(process, runtime)
                    epoch += 1
                    respawns += 1
                    process, transport, faulty, runtime = build_stack(epoch, args)
            except Exception:
                print("UNTYPED ERROR escaped the resilience layer:")
                traceback.print_exc()
                return 1
    finally:
        teardown_stack(process, runtime)
        recorded = 0
        if recorder is not None:
            recorded = failures_recorded(recorder)
            print(
                f"failures recorded: {recorded}, surfaced errors: "
                f"{sum(surfaced.values())}", flush=True,
            )
            if args.trace_out:
                from repro.telemetry.export import write_chrome_trace

                write_chrome_trace(args.trace_out, recorder)
                print(f"chaos trace written: {args.trace_out}", flush=True)

    if args.crash_dir:
        from repro.telemetry import flightrecorder

        bundles = flightrecorder.find_bundles(args.crash_dir)
        deaths = [b for b in bundles if "peer_death" in b.name]
        if not deaths:
            print(
                "FLIGHT RECORDER SILENT: the SIGKILLed target left no "
                "peer_death crash bundle in " + args.crash_dir
            )
            return 1
        try:
            latest = flightrecorder.load_bundle(deaths[-1])
        except ValueError as exc:
            print(f"FLIGHT RECORDER CORRUPT: unreadable bundle: {exc}")
            return 1
        print(
            f"crash bundles: {len(bundles)} "
            f"({len(deaths)} peer_death), latest death captured "
            f"{latest['manifest'].get('events')} events", flush=True,
        )

    if args.assert_faults_recorded and recorded == 0:
        print(
            "FAILURE COUNTERS SILENT: injected faults bumped no "
            "kernel.<k>.errors, future.timeouts or offload.issue_failures"
        )
        return 1

    print(
        f"chaos smoke OK: {ops} ops in {args.duration:.0f} s, "
        f"{faulty.stats()['faults_injected']} faults in final epoch, "
        f"{respawns} respawns, surfaced errors: {dict(surfaced) or 'none'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
