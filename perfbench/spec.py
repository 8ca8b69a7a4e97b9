"""The one table of workload and metric names.

The runner, ``compare``, ``BENCHMARK.json``, the README prediction table
and the self-test all read this module, so a name exists in exactly one
place. Regenerate the derived files with ``python -m perfbench spec
--write`` after editing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
README = Path(__file__).resolve().parent / "README.md"

#: What the contract's driver appends ``--workload/--seed/--seconds/--trace`` to.
COMMAND = ["python3", "-m", "perfbench", "run"]
#: Seconds of timed blocks per run under the driver: 4 + 22 x 5 gated
#: workloads = 114 runs must end within 3420 s, and a run takes ~3.5 s
#: more than this (five child start-ups, warm-up, finalize): 114 x 23.5 s
#: is 78 % of the budget. Ten-second runs of seven workloads were refused
#: as too noisy (README, *Known findings* 1).
RUN_SECONDS = 20

#: Run protocol: fresh child interpreters per run, timed blocks per child.
CHILDREN = 3
BLOCKS = 12
#: Extra children that only set up (start -> first verified reply ->
#: finalize): ``setup_s`` is the median of 5 set-ups, not of 3.
SETUP_ONLY_CHILDREN = 2
#: Checked operations before the first block, by loop type (a bulk round
#: moves 2 MiB, a pipelined "operation" is one offload of a 256-deep batch).
WARMUP_OFFLOADS = {"sync": 500, "pipelined": 512, "bulk": 50}
#: ``python -m perfbench run`` without ``--seconds``: as under the driver.
DEFAULT_SECONDS = float(RUN_SECONDS)
#: Hard wall-clock cap of one child beyond its timed blocks (start-up,
#: warm-up, bulk probe, finalize); a child over it is killed and its
#: workload marked failed.
CHILD_GRACE_SECONDS = 45.0

#: Cost of one ``reference.Reference.step`` on the quiet sandbox; block
#: values are scaled by this over the block's own measured cost.
REFERENCE_NOMINAL_US = 0.69

BULK_BYTES = 1 << 20
PIPELINE_DEPTH = 256

#: The paper's Fig. 9 bars in microseconds; ``sim_fig9`` is correct only
#: while the simulated costs stay within ``PAPER_TOLERANCE_PCT`` of them.
PAPER_US = {"dma_offload": 6.1, "veo_offload": 432.0, "native_veo_call": 80.0}
PAPER_TOLERANCE_PCT = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "local" | "shm" | "tcp" | "dma" (simulated DMA protocol)
    loop: str  # "sync" | "pipelined" | "bulk"; all closed-loop, one client thread
    depth: int
    payload: str
    why: str
    #: Keyword options of ``repro.offload.api.init`` beyond the defaults.
    init_options: tuple[tuple[str, object], ...] = ()
    #: Listed in ``BENCHMARK.json``, i.e. run and gated by the driver. The
    #: driver's time limit pays for five workloads of 20 s, not for seven.
    gated: bool = True

    def benchmark_why(self) -> str:
        return (
            f"closed loop, depth {self.depth}, {self.payload}, "
            f"{self.transport}: {self.why}"
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sync_local", "local", "sync", 1, "echo(i)",
        "ham + offload do all the work, no transport; the bypass workload "
        "for every transport change",
    ),
    Workload(
        "sync_shm", "shm", "sync", 1, "echo(i)",
        "backends/shm.py polling and ring framing on top of sync_local; "
        "real-path twin of the paper's Fig. 9",
    ),
    Workload(
        "sync_tcp", "tcp", "sync", 1, "echo(i)",
        "backends/tcp.py + eventloop.py (reactor wake-up, sendmsg, parse) "
        "dominate; an shm-only change must not move it",
    ),
    Workload(
        "pipelined_tcp", "tcp", "pipelined", PIPELINE_DEPTH, "echo(i)",
        "per-message CPU, InflightWindow and reactor decide throughput; "
        "the opposite regime of sync_tcp on the same layer",
        (("window", PIPELINE_DEPTH),),
    ),
    Workload(
        "bulk_shm", "shm", "bulk", 1, "put 1 MiB, vsum, get 1 MiB",
        "large frames through the rings sync_shm uses for 60-byte ones; "
        "the paper's Fig. 10 on the real path",
        gated=False,
    ),
    Workload(
        "traced_shm", "shm", "sync", 1, "echo(i)",
        "sync_shm with telemetry sample_rate=1.0; the difference to "
        "sync_shm is telemetry's cost per empty offload",
        (("telemetry", (("sample_rate", 1.0),)),),
    ),
    Workload(
        "sim_fig9", "dma", "sync", 1, "echo(i)",
        "sim/hw/veos/veo do the work, no real transport; guards the "
        "paper's 6.1/432/80 us and prices the simulator in wall-clock",
        gated=False,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
GATED_WORKLOADS = tuple(w for w in WORKLOADS if w.gated)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    doc: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float | None = None
    #: End-to-end only: values are scaled by the interleaved reference
    #: (``reference.py``). Not the copies: they are bound by memory
    #: bandwidth, which the interpreter-bound reference does not track.
    at_reference_speed: bool = False
    #: Per-layer only: the ``src/repro`` package measured ...
    layer: str = ""
    #: ... and the end-to-end metric (and workloads) it is predicted to move.
    moves: str = ""
    #: Transports the metric exists on; ``None`` means every workload.
    #: Restricted metrics are printed and stored but stay out of
    #: ``BENCHMARK.json``, whose metrics every workload must report.
    transports: tuple[str, ...] | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower",
        "child start to first verified reply, including `import repro` "
        "and target spawn; median over the run's five set-ups",
        bound=0.25, at_reference_speed=True,
    ),
    Metric(
        "offload_p50_us", "us", "lower",
        "median wall time of one offload: `sync(f2f(echo, i))`; on "
        "pipelined_tcp one 256-deep batch (`async_` all, `get` all) / 256; "
        "on bulk_shm one round put 1 MiB + `vsum` + get 1 MiB; on sim_fig9 "
        "wall time of one DMA-protocol offload",
        bound=0.25, at_reference_speed=True,
    ),
    Metric(
        "host_cpu_us_per_offload", "us", "lower",
        "`time.process_time` of the host process per completed offload: "
        "the CPU the host does not get back by offloading",
        bound=0.25, at_reference_speed=True,
    ),
    Metric(
        "offloads_per_s", "1/s", "higher",
        "completed verified offloads per second of timed block (bulk_shm: "
        "put + vsum + get rounds)",
        bound=0.25, at_reference_speed=True,
    ),
)

#: Printed and stored beside the end-to-end metrics of a workload, never
#: gated: between identical runs here they move by more than any bound the
#: contract allows (README, *Known findings* 1).
DIAGNOSTICS: tuple[Metric, ...] = (
    Metric("offload_p90_us", "us", "lower",
           "90th percentile of the samples behind offload_p50_us",
           at_reference_speed=True),
    Metric("offload_p99_us", "us", "lower", "their 99th percentile",
           at_reference_speed=True),
    Metric("put_MiBps", "MiB/s", "higher",
           "bulk_shm only: 1 MiB / median time inside `put(...).get()`"),
    Metric("get_MiBps", "MiB/s", "higher",
           "bulk_shm only: 1 MiB / median time inside `get(...).get()`, "
           "bytes compared with what was put"),
)

_SYNC = "offload_p50_us on sync_<t>"
_BULK = "offload.put_MiBps/get_MiBps and offload_p50_us on bulk_shm, nothing on sync_*"


def _layer(layer: str, rows: list[tuple]) -> list[Metric]:
    return [
        Metric(f"{layer}.{name}", unit, better, doc, layer=layer, moves=moves,
               transports=rest[0] if rest else None)
        for name, unit, better, moves, doc, *rest in rows
    ]


PER_LAYER: tuple[Metric, ...] = tuple(
    _layer("ham", [
        ("f2f_ns", "ns", "lower",
         "offload_p50_us on sync_local (ham is a third of it), same absolute "
         "us on sync_shm/sync_tcp; offloads_per_s on pipelined_tcp",
         "`f2f(echo, i)`"),
        ("build_invoke_ns", "ns", "lower", "as ham.f2f_ns",
         "`build_invoke_parts(image, functor, id)` for echo(i)"),
        ("execute_ns", "ns", "lower", "as ham.f2f_ns",
         "`execute_message(image, invoke)` for echo(i)"),
        ("unpack_result_ns", "ns", "lower", "as ham.f2f_ns",
         "`unpack_result(reply)`"),
        ("key_lookup_ns", "ns", "lower", "as ham.f2f_ns",
         "`ProcessImage.key_for` + `entry_for_key`"),
        ("build_invoke_ndarray_ns", "ns", "lower", _BULK,
         "`build_invoke_parts` with a 64 KiB ndarray argument"),
        ("serialize_1mib_MiBps", "MiB/s", "higher", _BULK,
         "`serialize` of a 1 MiB float64 array"),
        ("deserialize_1mib_MiBps", "MiB/s", "higher", _BULK,
         "`deserialize` of the same"),
        ("invoke_bytes", "count", "lower", "exact; backends.bytes_sent_per_offload",
         "bytes of one echo(i) INVOKE message"),
        ("reply_bytes", "count", "lower", "exact; backends.bytes_received_per_offload",
         "bytes of its RESULT message"),
    ])
    + _layer("offload", [
        ("async_ns", "ns", "lower", _SYNC, "time inside `async_`"),
        ("get_ns", "ns", "lower", _SYNC, "time inside `Future.get`"),
        ("runtime_self_ns", "ns", "lower", _SYNC,
         "offload.async_ns - backends.post_invoke_ns: the runtime's own share"),
        ("window_ns", "ns", "lower", "offloads_per_s on pipelined_tcp",
         "`InflightWindow` acquire + register + release, uncontended"),
        ("framework_overhead_us", "us", "lower", _SYNC,
         "untraced sync median - backends.ping_p50_us (the paper's 6.1 - 1.2)"),
        ("finalize_s", "s", "lower", "reported beside setup_s",
         "`finalize()` of the workload's runtime"),
        ("p90_us", "us", "lower", "diagnostic only",
         "90th percentile of the untraced reference loop"),
        ("p99_us", "us", "lower", "diagnostic only",
         "its 99th percentile"),
        ("put_MiBps", "MiB/s", "higher", "offload_p50_us on bulk_shm",
         "1 MiB / median time inside `put(...).get()` on the workload's "
         "runtime, 16 verified rounds"),
        ("get_MiBps", "MiB/s", "higher", "offload_p50_us on bulk_shm",
         "1 MiB / median time inside `get(...).get()`, bytes compared"),
    ])
    + _layer("backends", [
        ("ping_p50_us", "us", "lower", "offload_p50_us on sync_<t> only",
         "bare transport round trip: wall time of `Backend.ping`"),
        ("post_invoke_ns", "ns", "lower", "offload_p50_us on sync_<t> only",
         "`Backend.post_invoke`"),
        ("wait_ns", "ns", "lower", "offload_p50_us on sync_<t> only",
         "`InvokeHandle.wait`"),
        ("write_MiBps", "MiB/s", "higher", "offload.put_MiBps",
         "1 MiB `write_buffer`"),
        ("read_MiBps", "MiB/s", "higher", "offload.get_MiBps",
         "1 MiB `read_buffer`"),
        ("spawn_s", "s", "lower", "setup_s",
         "`create_backend(<t>)` (sim_fig9: `DmaCommBackend()`)"),
        ("bytes_sent_per_offload", "count", "lower", "exact",
         "`stats()['bytes_sent']` per offload", ("shm", "tcp")),
        ("bytes_received_per_offload", "count", "lower", "exact",
         "`stats()['bytes_received']` per offload", ("shm", "tcp")),
        ("tcp.reactor_wakeups_per_offload", "count", "lower",
         "offload_p50_us on sync_tcp, offloads_per_s on pipelined_tcp",
         "`stats()['reactor']['wakeups']` per offload", ("tcp",)),
        ("shm.backstop_pumps_per_offload", "count", "lower",
         "offload_p50_us on sync_shm",
         "`stats()['backstop_pumps']` per offload", ("shm",)),
    ])
    + _layer("telemetry", [
        ("span_off_ns", "ns", "lower", "offload_p50_us on sync_*",
         "`with telemetry.span(...)` while disabled"),
        ("span_on_ns", "ns", "lower", "offload_p50_us on traced_shm",
         "the same while recording"),
        ("count_off_ns", "ns", "lower", "offload_p50_us on sync_*",
         "`telemetry.count(...)` while disabled"),
        ("count_on_ns", "ns", "lower", "offload_p50_us on traced_shm",
         "the same while recording"),
        ("flight_note_ns", "ns", "lower", "offload_p50_us on error paths only",
         "`flightrecorder.note(...)` (always on)"),
        ("records_per_offload", "count", "lower", "offload_p50_us on traced_shm",
         "recorder records appended per offload (0 with telemetry off)"),
        ("import_s", "s", "lower", "setup_s",
         "cold `import repro.telemetry` in a fresh interpreter"),
    ])
    + _layer("sim", [
        ("dma_offload_us", "us", "lower", "sim.paper_error_pct",
         "simulated cost of one DMA-protocol echo offload (exact)"),
        ("veo_offload_us", "us", "lower", "sim.paper_error_pct",
         "simulated cost of one HAM-over-VEO echo offload (exact)"),
        ("native_veo_call_us", "us", "lower", "sim.paper_error_pct",
         "simulated cost of one native empty `veo_call` (exact)"),
        ("paper_error_pct", "%", "lower", "correctness of sim_fig9",
         "max relative deviation of the three from 6.1 / 432 / 80 us; "
         "repeats exactly"),
        ("wall_us_per_offload.dma", "us", "lower", "offload_p50_us on sim_fig9",
         "wall-clock of one simulated DMA-protocol offload"),
        ("wall_us_per_offload.veo", "us", "lower", "nothing gated",
         "wall-clock of one simulated VEO-protocol offload"),
    ])
    + _layer("trace", [
        ("overhead_pct", "%", "lower", "nothing; it prices the harness",
         "traced vs untraced median of the same loop"),
        ("root_self_us", "us", "lower", "harness glue",
         "self time of the per-offload root span (span minus children)"),
        ("f2f_us", "us", "lower", "as ham.f2f_ns", "self time of the `f2f` span"),
        ("async_us", "us", "lower", "as offload.async_ns",
         "self time of the `async_` span"),
        ("get_us", "us", "lower", "as offload.get_ns",
         "self time of the `Future.get` span"),
        ("replay_build_invoke_us", "us", "lower", "as ham.build_invoke_ns",
         "in-process replay of the same functor: `build_invoke_parts`"),
        ("replay_execute_us", "us", "lower", "as ham.execute_ns",
         "replay: `execute_message`"),
        ("replay_unpack_result_us", "us", "lower", "as ham.unpack_result_ns",
         "replay: `unpack_result`"),
        ("unattributed_us", "us", "lower", _SYNC,
         "untraced median minus the ham spans: what offload, backends and "
         "the target's wake-up cost together, unseen from outside"),
    ])
)

#: Derived in a run that measured both workloads; stored, never in the contract.
TELEMETRY_PER_OFFLOAD = Metric(
    "telemetry.per_offload_us", "us", "lower",
    "offload_p50_us of traced_shm minus that of sync_shm",
    layer="telemetry", moves="offload_p50_us on traced_shm only",
    transports=(),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}
#: The per-layer metrics every workload's traced run reports.
CONTRACT_PER_LAYER = tuple(m for m in PER_LAYER if m.transports is None)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``, in the contract's exact keys."""
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.benchmark_why()} for w in GATED_WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in CONTRACT_PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


TABLE_BEGIN = "<!-- prediction-table: generated by `python -m perfbench spec --write` -->"
TABLE_END = "<!-- /prediction-table -->"


def render_prediction_table() -> str:
    """The README's metric -> layer -> workload prediction table."""
    lines = [
        TABLE_BEGIN,
        "",
        "| end-to-end metric | unit | better | bound | scaled | what it is |",
        "|---|---|---|---|---|---|",
    ]
    for m in END_TO_END:
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.0%} | "
            f"{'yes' if m.at_reference_speed else 'no'} | {m.doc} |"
        )
    lines += [
        "",
        "| layer metric | unit | layer | predicted to move | measured by |",
        "|---|---|---|---|---|",
    ]
    for m in PER_LAYER + (TELEMETRY_PER_OFFLOAD,):
        lines.append(
            f"| `{m.name}` | {m.unit} | `{m.layer}` | {m.moves} | {m.doc} |"
        )
    lines += ["", TABLE_END]
    return "\n".join(lines)


def write_derived() -> list[Path]:
    """Rewrite ``BENCHMARK.json`` and the README's generated table."""
    BENCHMARK_JSON.write_text(render_benchmark_json())
    text = README.read_text()
    head, _, rest = text.partition(TABLE_BEGIN)
    _, _, tail = rest.partition(TABLE_END)
    README.write_text(head + render_prediction_table() + tail)
    return [BENCHMARK_JSON, README]
