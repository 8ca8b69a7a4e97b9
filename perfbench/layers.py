"""The traced pass: per-layer probes and the span-wrapped offload loop.

Everything here is measured from outside, by timing calls into each
layer's public functions, and never feeds an end-to-end number. One
traced child reports the whole table of ``spec.PER_LAYER``: the
``offload.*``/``backends.*`` rows for the workload's own transport and
options, the ``ham.*``/``telemetry.*``/``sim.*`` rows in-process.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro import telemetry
from repro.backends import (
    DmaCommBackend,
    InvokeHandle,
    VeoCommBackend,
    create_backend,
)
from repro.backends.base import InflightWindow
from repro.ham import ProcessImage, deserialize, f2f, serialize
from repro.ham.execution import build_invoke_parts, execute_message, unpack_result
from repro.machine import AuroraMachine
from repro.offload import BufferPtr, Runtime, api
from repro.telemetry import flightrecorder
from repro.veo import VeoProc
from repro.veos.loader import VeLibrary

from perfbench import kernels, spec
from perfbench.stats import median, percentile
from perfbench.trace import Tracer

MAX_CALLS = 20_000
#: Offloads whose spans are kept (8 spans each; the file stays a few MB).
MAX_TRACED_OFFLOADS = 5_000
FIXED_ARG = 1 << 20
BULK_PROBE_ROUNDS = 16


def mibps(ns: float) -> float:
    """MiB/s of moving the 1 MiB bulk payload in ``ns``."""
    return spec.BULK_BYTES / (1 << 20) / (ns / 1e9)


def timed(fn: Callable[[], object], seconds: float, batch: int = 1) -> tuple[float, int]:
    """Median ns per call of ``fn``: up to 20 k calls or ``seconds``.

    Sub-microsecond calls are timed ``batch`` at a time so the clock
    reads do not dominate the sample.
    """
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    reps = range(batch)
    samples = []
    while len(samples) * batch < MAX_CALLS:
        start = clock()
        for _ in reps:
            fn()
        end = clock()
        samples.append((end - start) / batch)
        if end >= deadline:
            break
    return median(samples), len(samples) * batch


@contextlib.contextmanager
def telemetry_off():
    """Detach the workload's recorder (if any); re-attach it afterwards."""
    saved = telemetry.disable()
    try:
        yield
    finally:
        telemetry.disable()
        if saved is not None:
            telemetry.enable(recorder=saved)


def split_timed(post, wait, expected, seconds: float, session) -> tuple[list, list]:
    """ns inside ``post()`` and inside ``wait(posted)``, per checked call."""
    clock = time.perf_counter_ns
    posts, waits = [], []
    deadline = clock() + int(seconds * 1e9)
    while len(posts) < MAX_CALLS:
        t0 = clock()
        posted = post()
        t1 = clock()
        reply = wait(posted)
        t2 = clock()
        session.attempted += 1
        if reply == expected:
            posts.append(t1 - t0)
            waits.append(t2 - t1)
        else:
            session.failed += 1
        if t2 >= deadline:
            break
    return posts, waits


def sim_costs(rounds: int) -> dict[str, float]:
    """Fig. 9 on the simulator: simulated and wall-clock us per operation.

    Measured as the paper does, on an empty kernel, and with telemetry
    off: a trace context in the header lengthens the message, and the
    simulated DMA time with it.
    """
    with telemetry_off():
        return _sim_costs(rounds)


def _sim_costs(rounds: int) -> dict[str, float]:
    def offload_cost(backend) -> tuple[float, float]:
        runtime = Runtime(backend)
        sims, walls = [], []
        try:
            for _ in range(rounds + 10):  # the paper's 10 warm-up iterations
                sim0, wall0 = backend.sim.now, time.perf_counter_ns()
                reply = runtime.sync(1, f2f(kernels.empty))
                walls.append(time.perf_counter_ns() - wall0)
                sims.append(backend.sim.now - sim0)
                if reply is not None:
                    raise RuntimeError(f"simulated empty kernel returned {reply!r}")
        finally:
            runtime.shutdown()
        return median(sims[10:]) * 1e6, median(walls[10:]) / 1e3

    def native_call_cost() -> float:
        machine = AuroraMachine(num_ves=1)
        proc = VeoProc(machine, 0)
        library = VeLibrary("libempty")
        library.add_function("empty", lambda: None)
        ctx = proc.open_context()
        symbol = proc.load_library(library).get_symbol("empty")
        sims = []
        try:
            for _ in range(rounds + 10):
                sim0 = machine.sim.now
                ctx.call_sync(symbol)
                sims.append(machine.sim.now - sim0)
        finally:
            proc.destroy()
        return median(sims[10:]) * 1e6

    dma_us, dma_wall = offload_cost(DmaCommBackend())
    veo_us, veo_wall = offload_cost(VeoCommBackend())
    costs = {
        "sim.dma_offload_us": dma_us,
        "sim.veo_offload_us": veo_us,
        "sim.native_veo_call_us": native_call_cost(),
        "sim.wall_us_per_offload.dma": dma_wall,
        "sim.wall_us_per_offload.veo": veo_wall,
    }
    costs["sim.paper_error_pct"] = max(
        abs(costs[f"sim.{name}_us"] - paper) / paper * 100.0
        for name, paper in spec.PAPER_US.items()
    )
    return costs


class TracedPass:
    """Collects ``{metric: {"value", "samples"}}`` over the three phases."""

    def __init__(self, session, seconds: float, trace_path: str | None) -> None:
        self.session = session
        self.trace_path = trace_path
        self.values: dict[str, dict] = {}
        self.reference_p50_us = 0.0
        # 15 % reference loop, 15 % traced loop, the rest shared by the 17
        # timed probes and the two post/wait loops of two slices each.
        self.loop_seconds = 0.15 * seconds
        self.probe_seconds = 0.70 * seconds / 21

    def put(self, name: str, value: float, samples: int = 1) -> None:
        if name not in spec.PER_LAYER_BY_NAME:
            raise KeyError(f"{name} is not declared in spec.PER_LAYER")
        self.values[name] = {"value": float(value), "samples": samples}

    def probe(
        self,
        name: str,
        fn: Callable[[], object],
        batch: int = 1,
        convert: Callable[[float], float] = lambda ns: ns,
    ) -> float:
        """Time ``fn`` for one probe slice; stores ``convert(median ns)``."""
        ns, calls = timed(fn, self.probe_seconds, batch)
        self.put(name, convert(ns), calls)
        return convert(ns)

    # -- phase 1: the workload's live runtime --------------------------------
    def _operation(self):
        """``(arguments(i), expected(i))`` of the workload's offload."""
        session = self.session
        if session.workload.loop == "bulk":
            session.bulk_probe(1)  # the buffer now holds bulk_src
            total = float(session.bulk_src.sum())
            call = (kernels.vsum, session.bulk_buf, session.bulk_src.size)
            return (lambda i: call), (lambda i: total)
        mask = len(session.args) - 1
        return (
            (lambda i: (session.kernel, session.args[i & mask])),
            (lambda i: session.args[i & mask]),
        )

    def runtime_phase(self) -> None:
        session = self.session
        arguments, expected = self._operation()
        async_, clock = api.async_, time.perf_counter_ns
        recorder = telemetry.get()

        def check(i: int, reply) -> bool:
            session.attempted += 1
            if reply != expected(i):
                session.failed += 1
                return False
            return True

        # Untraced reference loop: the same three calls, no spans.
        records0 = recorder.recorded if recorder is not None else 0
        untraced = []
        deadline = clock() + int(self.loop_seconds * 1e9)
        i = 0
        while True:
            start = clock()
            reply = async_(1, f2f(*arguments(i))).get()
            end = clock()
            if check(i, reply):
                untraced.append(end - start)
            i += 1
            if end >= deadline:
                break
        records = (recorder.recorded - records0) / i if recorder is not None else 0.0
        self.put("telemetry.records_per_offload", records, i)

        # Traced loop: a span around each boundary call, then the same
        # functor replayed in-process through ham's three functions.
        tracer = Tracer()
        host, target = ProcessImage("perfbench-host"), ProcessImage("perfbench-target")
        src = session.bulk_src

        def resolver(arg):
            return src if isinstance(arg, BufferPtr) else arg

        traced = []
        deadline = clock() + int(self.loop_seconds * 1e9)
        for i in range(MAX_TRACED_OFFLOADS):
            root = tracer.begin("offload", -1, i)
            span = tracer.begin("f2f", root, i)
            functor = f2f(*arguments(i))
            tracer.end(span)
            span = tracer.begin("async_", root, i)
            future = async_(1, functor)
            tracer.end(span)
            span = tracer.begin("get", root, i)
            reply = future.get()
            tracer.end(span)
            tracer.end(root)
            root_span = tracer.spans[root]
            if check(i, reply):
                traced.append(root_span[2] - root_span[1])
            root = tracer.begin("replay", -1, i)
            span = tracer.begin("replay_build_invoke", root, i)
            parts = build_invoke_parts(host, functor, i)
            tracer.end(span)
            invoke = b"".join(parts)
            span = tracer.begin("replay_execute", root, i)
            reply_message, _running = execute_message(target, invoke, resolver)
            tracer.end(span)
            span = tracer.begin("replay_unpack_result", root, i)
            _msg_id, value = unpack_result(reply_message)
            tracer.end(span)
            tracer.end(root)
            check(i, value)
            if clock() >= deadline:
                break
        if self.trace_path:
            tracer.write(Path(self.trace_path))
        if not (untraced and traced):
            raise RuntimeError("the traced pass completed no verified offload")
        p50_us = median(untraced) / 1e3
        self.reference_p50_us = p50_us
        self.put("offload.p90_us", percentile(untraced, 90) / 1e3, len(untraced))
        self.put("offload.p99_us", percentile(untraced, 99) / 1e3, len(untraced))
        self.put(
            "trace.overhead_pct",
            (median(traced) / 1e3 - p50_us) / p50_us * 100.0,
            len(traced),
        )
        self_us = tracer.self_times_us()
        self.put("trace.root_self_us", self_us["offload"], len(traced))
        for name in ("f2f", "async_", "get", "replay_build_invoke",
                     "replay_execute", "replay_unpack_result"):
            self.put(f"trace.{name.rstrip('_')}_us", self_us[name], len(traced))
        self.put(
            "trace.unattributed_us",
            p50_us - sum(self_us[name] for name in (
                "f2f", "replay_build_invoke", "replay_execute",
                "replay_unpack_result")),
            len(untraced),
        )

        # Time inside async_ and inside Future.get, on the echo functor the
        # backend probe posts too, so the two rows subtract.
        functor = f2f(session.kernel, FIXED_ARG)
        inside_async, inside_get = split_timed(
            lambda: async_(1, functor), lambda future: future.get(),
            FIXED_ARG, 2 * self.probe_seconds, session)
        self.put("offload.async_ns", median(inside_async), len(inside_async))
        self.put("offload.get_ns", median(inside_get), len(inside_get))

        puts, gets = session.bulk_probe(BULK_PROBE_ROUNDS)
        if not (puts and gets):
            raise RuntimeError("the traced pass completed no verified 1 MiB put/get")
        self.put("offload.put_MiBps", mibps(median(puts)), len(puts))
        self.put("offload.get_MiBps", mibps(median(gets)), len(gets))

    # -- phase 2: a backend of the workload's transport, on its own ----------
    def backend_phase(self) -> None:
        transport = self.session.workload.transport
        start = time.perf_counter()
        backend = DmaCommBackend() if transport == "dma" else create_backend(transport)
        self.put("backends.spawn_s", time.perf_counter() - start)
        try:
            ping_us = self.probe("backends.ping_p50_us", lambda: backend.ping(1),
                                 convert=lambda ns: ns / 1e3)

            functor = f2f(self.session.kernel, FIXED_ARG)
            stats0 = backend.stats()
            posts, waits = split_timed(
                lambda: backend.post_invoke(1, functor), lambda handle: handle.wait(),
                FIXED_ARG, 2 * self.probe_seconds, self.session)
            stats1 = backend.stats()
            self.put("backends.post_invoke_ns", median(posts), len(posts))
            self.put("backends.wait_ns", median(waits), len(waits))
            for name, path in (
                ("backends.bytes_sent_per_offload", ("bytes_sent",)),
                ("backends.bytes_received_per_offload", ("bytes_received",)),
                ("backends.tcp.reactor_wakeups_per_offload", ("reactor", "wakeups")),
                ("backends.shm.backstop_pumps_per_offload", ("backstop_pumps",)),
            ):
                if transport in spec.PER_LAYER_BY_NAME[name].transports:
                    before, after = stats0, stats1
                    for key in path:
                        before, after = before[key], after[key]
                    self.put(name, (after - before) / len(posts), len(posts))

            payload = self.session.bulk_src.tobytes()
            addr = backend.alloc_buffer(1, len(payload))
            self.probe("backends.write_MiBps",
                       lambda: backend.write_buffer(1, addr, payload), convert=mibps)
            self.session.attempted += 1
            if backend.read_buffer(1, addr, len(payload)) != payload:
                self.session.failed += 1
            self.probe("backends.read_MiBps",
                       lambda: backend.read_buffer(1, addr, len(payload)), convert=mibps)
            backend.free_buffer(1, addr)
        finally:
            backend.shutdown()
        self.put("offload.runtime_self_ns",
                 self.values["offload.async_ns"]["value"] - median(posts), len(posts))
        self.put("offload.framework_overhead_us",
                 self.reference_p50_us - ping_us, len(posts))

    # -- phase 3: in-process probes of ham, the window, telemetry, the sim ---
    def global_phase(self) -> None:
        host, target = ProcessImage("perfbench-host"), ProcessImage("perfbench-target")
        echo = kernels.echo
        functor = f2f(echo, FIXED_ARG)
        invoke = b"".join(build_invoke_parts(host, functor, 1))
        reply, _running = execute_message(target, invoke)
        self.put("ham.invoke_bytes", len(invoke))
        self.put("ham.reply_bytes", len(reply))
        self.probe("ham.f2f_ns", lambda: f2f(echo, FIXED_ARG), batch=10)
        self.probe("ham.build_invoke_ns",
                   lambda: build_invoke_parts(host, functor, 1), batch=5)
        self.probe("ham.execute_ns", lambda: execute_message(target, invoke), batch=5)
        self.probe("ham.unpack_result_ns", lambda: unpack_result(reply), batch=5)
        type_name = functor.type_name
        self.probe("ham.key_lookup_ns",
                   lambda: target.entry_for_key(host.key_for(type_name)), batch=50)
        array_functor = f2f(echo, self.session.bulk_src[: 64 * 1024 // 8])
        self.probe("ham.build_invoke_ndarray_ns",
                   lambda: build_invoke_parts(host, array_functor, 1))
        array = self.session.bulk_src
        blob = serialize(array)
        self.probe("ham.serialize_1mib_MiBps", lambda: serialize(array), convert=mibps)
        self.probe("ham.deserialize_1mib_MiBps", lambda: deserialize(blob), convert=mibps)

        window = InflightWindow()
        handle = InvokeHandle(None)

        def window_cycle() -> None:
            window.acquire()
            window.register(handle)
            window.release(handle)

        self.probe("offload.window_ns", window_cycle, batch=20)

        def span() -> None:
            with telemetry.span("perfbench.probe"):
                pass

        def count() -> None:
            telemetry.count("perfbench.probe")

        # Off, then on with a fresh default recorder, then as it was.
        with telemetry_off():
            self.probe("telemetry.span_off_ns", span, batch=50)
            self.probe("telemetry.count_off_ns", count, batch=50)
            telemetry.enable()
            self.probe("telemetry.span_on_ns", span, batch=10)
            self.probe("telemetry.count_on_ns", count, batch=10)
        self.probe("telemetry.flight_note_ns",
                   lambda: flightrecorder.note("perfbench.probe", node=1), batch=10)
        cold = [
            float(subprocess.run(
                [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import repro.telemetry; "
                 "print(time.perf_counter() - t)"],
                check=True, capture_output=True, text=True, timeout=60,
            ).stdout)
            for _ in range(3)
        ]
        self.put("telemetry.import_s", median(cold), len(cold))

        rounds = 200
        for name, value in sim_costs(rounds).items():
            self.put(name, value, rounds)

