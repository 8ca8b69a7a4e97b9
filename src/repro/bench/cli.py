"""Command-line reproduction runner — ``python -m repro.bench.cli``.

Regenerates the paper's tables and figures without pytest::

    python -m repro.bench.cli fig9
    python -m repro.bench.cli fig10 --quick
    python -m repro.bench.cli all

Each experiment prints a paper-style report; ``all`` runs everything.
``--json-dir DIR`` additionally drops a machine-readable
``BENCH_<experiment>.json`` per experiment (see
:mod:`repro.bench.trajectory`). The same measurement code backs the
pytest benchmarks (see :mod:`repro.bench.experiments`).
"""

from __future__ import annotations

import argparse

from repro.bench import experiments as exp
from repro.bench.calibration import PAPER
from repro.bench.figures import ascii_chart, render_series
from repro.bench.tables import (
    format_bandwidth,
    format_size,
    format_time,
    render_table,
)
from repro.bench.trajectory import write_bench_json
from repro.hw.specs import GIB, MIB

__all__ = ["main"]

#: Every report function returns (human-readable text, raw JSON payload).
Report = tuple[str, dict]


def report_fig9(quick: bool) -> Report:
    stats = exp.measure_fig9(reps=15 if quick else 60, full=True)
    data = {name: s.mean for name, s in stats.items()}
    rows = [
        {"method": "VEO (native)", "measured": format_time(data["veo_native"]),
         "paper": format_time(PAPER.fig9_veo_native)},
        {"method": "HAM-Offload (VEO)", "measured": format_time(data["ham_veo"]),
         "paper": format_time(PAPER.fig9_ham_veo)},
        {"method": "HAM-Offload (DMA)", "measured": format_time(data["ham_dma"]),
         "paper": format_time(PAPER.fig9_ham_dma)},
    ]
    ratios = render_table(
        [
            {"ratio": "HAM-VEO / VEO",
             "measured": f"{data['ham_veo'] / data['veo_native']:.1f}x", "paper": "5.4x"},
            {"ratio": "VEO / HAM-DMA",
             "measured": f"{data['veo_native'] / data['ham_dma']:.1f}x", "paper": "13.1x"},
            {"ratio": "HAM-VEO / HAM-DMA",
             "measured": f"{data['ham_veo'] / data['ham_dma']:.1f}x", "paper": "70.8x"},
        ],
        title="Fig. 9 — speedup ratios",
    )
    text = render_table(rows, title="Fig. 9 — empty-kernel offload cost") + "\n\n" + ratios
    return text, {"stats": stats}


def report_fig10(quick: bool) -> Report:
    sizes = exp.fig10_sizes(16 * MIB if quick else exp.FIG10_MAX_SIZE)
    data = exp.measure_fig10(sizes, rep_base=3 if quick else 8)
    sections = []
    for direction, label in (("vh_to_ve", "VH => VE"), ("ve_to_vh", "VE => VH")):
        series = {
            name: [v / GIB for v in values] for name, values in data[direction].items()
        }
        sections.append(render_series(
            sizes, series, title=f"Fig. 10 ({label}) [GiB/s]"
        ))
        sections.append(ascii_chart(sizes, series, title=f"Fig. 10 ({label}) log-log"))
    return "\n\n".join(sections), {"sizes": sizes, "bandwidths": data}


def report_table4(quick: bool) -> Report:
    peaks = exp.measure_table4([64 * MIB] if quick else None)
    rows = [
        {"Transfer Method": "VEO Read/Write",
         "VH => VE": format_bandwidth(peaks["veo_write"]),
         "VE => VH": format_bandwidth(peaks["veo_read"]),
         "paper": "9.9 / 10.4 GiB/s"},
        {"Transfer Method": "VE User DMA",
         "VH => VE": format_bandwidth(peaks["udma_read"]),
         "VE => VH": format_bandwidth(peaks["udma_write"]),
         "paper": "10.6 / 11.1 GiB/s"},
        {"Transfer Method": "VE SHM/LHM",
         "VH => VE": format_bandwidth(peaks["lhm"]),
         "VE => VH": format_bandwidth(peaks["shm"]),
         "paper": "0.01 / 0.06 GiB/s"},
    ]
    return render_table(rows, title="Table IV — max PCIe bandwidths"), {"peaks": peaks}


def report_numa(quick: bool) -> Report:
    data = exp.measure_numa_penalty(reps=10 if quick else 40)
    rows = [
        {"protocol": name.upper(),
         "socket 0": format_time(data[f"{name}_socket0"]),
         "socket 1 (UPI)": format_time(data[f"{name}_socket1"]),
         "added": format_time(data[f"{name}_socket1"] - data[f"{name}_socket0"])}
        for name in ("dma", "veo")
    ]
    text = render_table(rows, title="Sec. V-A — second-socket offload cost")
    return text, {"costs": data}


def report_ablations(quick: bool) -> Report:
    a1 = exp.measure_dma_manager_ablation()
    a2 = exp.measure_hugepages_ablation()
    rows1 = [
        {"size": format_size(size), "classic": format_bandwidth(a1["classic"][size]),
         "4dma": format_bandwidth(a1["4dma"][size])}
        for size in sorted(a1["classic"])
    ]
    rows2 = [
        {"size": format_size(size), "huge pages": format_bandwidth(a2["huge"][size]),
         "4 KiB pages": format_bandwidth(a2["small"][size])}
        for size in sorted(a2["huge"])
    ]
    text = (
        render_table(rows1, title="A1 — DMA manager generations")
        + "\n\n"
        + render_table(rows2, title="A2 — page sizes")
    )
    return text, {"dma_manager": a1, "hugepages": a2}


def report_scaling(quick: bool) -> Report:
    m1 = exp.measure_multi_ve_scaling(rounds=4 if quick else 12)
    m2 = exp.measure_switch_contention(4 * MIB if quick else 16 * MIB)
    rows1 = [
        {"VEs": n, "offloads/s": f"{rate:,.0f}", "speedup": f"{rate / m1[1]:.2f}x"}
        for n, rate in sorted(m1.items())
    ]
    rows2 = [
        {"placement": key.replace("_", " "), "aggregate": format_bandwidth(value)}
        for key, value in m2.items()
    ]
    text = (
        render_table(rows1, title="M1 — multi-VE offload throughput")
        + "\n\n"
        + render_table(rows2, title="M2 — switch uplink contention")
    )
    return text, {"multi_ve": m1, "contention": m2}


def report_pipeline(quick: bool) -> Report:
    data = exp.measure_pipeline_throughput(
        invokes=16 if quick else 48,
        kernel_seconds=0.01 if quick else 0.02,
    )
    rows = [
        {"mode": "serial sync",
         "throughput": f"{data['serial_throughput']:,.0f} invokes/s",
         "wall time": format_time(data["serial_seconds"])},
        {"mode": f"pipelined (window {data['params']['window']}, "
                 f"{data['params']['workers']} workers)",
         "throughput": f"{data['pipelined_throughput']:,.0f} invokes/s",
         "wall time": format_time(data["pipelined_seconds"])},
        {"mode": "speedup", "throughput": f"{data['speedup']:.1f}x",
         "wall time": "-"},
    ]
    text = render_table(
        rows, title="P2 — pipelined TCP invoke throughput (wall clock)"
    )
    return text, {"pipeline": data}


def report_telemetry(quick: bool) -> Report:
    data = exp.measure_telemetry_overhead(invokes=40 if quick else 100)
    rows = [
        {"telemetry": label,
         "round trip": format_time(data[f"{mode}_mean_us"] / 1e6),
         "vs disabled": (
             f"{(data[f'overhead_{mode}'] - 1.0) * 100:+.1f}%"
             if f"overhead_{mode}" in data else "-"
         )}
        for mode, label in (
            ("flight_off", "disabled + flight recorder off"),
            ("disabled", "disabled"),
            ("rate_0", "sample_rate=0.0"),
            ("rate_0_01", "sample_rate=0.01"),
            ("rate_1", "sample_rate=1.0"),
        )
    ]
    rows.append({
        "telemetry": "flight recorder cost",
        "round trip": "-",
        "vs disabled": f"{(data['overhead_flight_on'] - 1.0) * 100:+.1f}%",
    })
    text = render_table(
        rows, title="T1 — telemetry sampling overhead (TCP round trip)"
    )
    empty = exp.measure_telemetry_empty_kernel(rounds=7 if quick else 15)
    text += "\n\n" + render_table(
        telemetry_empty_kernel_rows(empty),
        title="T1b — telemetry's cost per empty offload (local)",
    )
    return text, {"overhead": data, "empty_kernel": empty}


def telemetry_empty_kernel_rows(empty: dict) -> list[dict[str, str]]:
    """Table rows of :func:`exp.measure_telemetry_empty_kernel`."""
    return [
        {"telemetry": label,
         "one offload": f"{empty[f'cost_us_{mode}']:.1f} us",
         "added": (f"{empty[f'added_cost_us_{mode}']:+.1f} us"
                   if mode != "disabled" else "-")}
        for mode, label in (
            ("disabled", "disabled"),
            ("rate_0", "sample_rate=0.0"),
            ("rate_0_01", "sample_rate=0.01"),
            ("rate_1", "sample_rate=1.0"),
        )
    ]


def report_tsdb(quick: bool) -> Report:
    data = exp.measure_tsdb_overhead(invokes=40 if quick else 100)
    rows = [
        {"mode": label,
         "round trip": format_time(data[f"{mode}_mean_us"] / 1e6),
         "vs tsdb off": (
             f"{(data['overhead_tsdb_on'] - 1.0) * 100:+.1f}%"
             if mode == "tsdb_on" else "-"
         )}
        for mode, label in (
            ("tsdb_off", "telemetry, no sampler"),
            ("tsdb_on", "telemetry + tsdb sampler (1 s)"),
        )
    ]
    text = render_table(
        rows, title="T2 — TSDB sampler overhead (TCP round trip)"
    )
    return text, {"overhead": data}


def report_qos(quick: bool) -> Report:
    data = exp.measure_qos(
        premium_ops=30 if quick else 80,
        straggler_invokes=64 if quick else 160,
    )
    fairness_rows = [
        {"window": "FIFO",
         "premium p99": format_time(data["premium_p99_latency_fifo"]),
         "premium mean": format_time(data["premium_mean_latency_fifo"])},
        {"window": "weighted fair (QoS)",
         "premium p99": format_time(data["premium_p99_latency_qos"]),
         "premium mean": format_time(data["premium_mean_latency_qos"])},
        {"window": "premium p99 speedup",
         "premium p99": f"{data['qos_premium_speedup']:.1f}x",
         "premium mean": "-"},
    ]
    hedge_rows = [
        {"mode": "unhedged",
         "max latency": format_time(data["unhedged_max_latency"]),
         "p99": format_time(data["unhedged_p99_latency"])},
        {"mode": "hedged",
         "max latency": format_time(data["hedged_max_latency"]),
         "p99": format_time(data["hedged_p99_latency"])},
        {"mode": "tail speedup / duplicate rate",
         "max latency": f"{data['hedge_tail_speedup']:.1f}x",
         "p99": f"{data['hedge_duplicate_overhead'] * 100:.1f}%"},
    ]
    text = (
        render_table(
            fairness_rows,
            title="Q1a — premium tenant latency under best-effort flood",
        )
        + "\n\n"
        + render_table(
            hedge_rows,
            title="Q1b — hedged requests vs intermittent straggler",
        )
    )
    return text, {"qos": data}


def report_shm(quick: bool) -> Report:
    data = exp.measure_shm_latency(
        samples=120 if quick else 300,
        rounds=3 if quick else 4,
        burst_rounds=20 if quick else 40,
    )
    rtt_rows = [
        {"transport": "tcp (localhost)",
         "RTT median": f"{data['tcp_rtt_time_us']:.1f} us",
         "RTT p95": f"{data['tcp_rtt_p95_time_us']:.1f} us"},
        {"transport": "shm (SPSC rings)",
         "RTT median": f"{data['shm_rtt_time_us']:.1f} us",
         "RTT p95": f"{data['shm_rtt_p95_time_us']:.1f} us"},
        {"transport": "speedup",
         "RTT median": f"{data['transport_rtt_speedup']:.1f}x",
         "RTT p95": "-"},
    ]
    burst_rows = [
        {"transport": "tcp (localhost)",
         "messages/s": f"{data['tcp_throughput']:,.0f}"},
        {"transport": "shm (SPSC rings)",
         "messages/s": f"{data['shm_throughput']:,.0f}"},
        {"transport": "speedup",
         "messages/s": f"{data['transport_throughput_speedup']:.1f}x"},
    ]
    text = (
        render_table(
            rtt_rows,
            title="S1a — small-message RTT, shm vs TCP (sync ping)",
        )
        + "\n\n"
        + render_table(
            burst_rows,
            title=(
                "S1b — pipelined message throughput "
                f"(depth {int(data['burst_depth'])} ping bursts)"
            ),
        )
    )
    return text, {"shm": data}


def report_saturation(quick: bool) -> Report:
    depths = (64, 256, 1024) if quick else (64, 256, 1024, 4096, 10_000)
    data = exp.measure_saturation(depths=depths)
    rows = []
    for depth in depths:
        rows.append({
            "depth": f"{depth:,}",
            "tcp": f"{data['tcp'][f'depth_{depth}']['rate']:,.0f}/s",
            "shm": f"{data['shm'][f'depth_{depth}']['rate']:,.0f}/s",
        })
    text = render_table(
        rows,
        title="S2 — pipelined empty-kernel invoke rate vs in-flight depth",
    )
    return text, {"saturation": data}


EXPERIMENTS: dict[str, callable] = {
    "fig9": report_fig9,
    "fig10": report_fig10,
    "table4": report_table4,
    "numa": report_numa,
    "ablations": report_ablations,
    "scaling": report_scaling,
    "pipeline": report_pipeline,
    "telemetry": report_telemetry,
    "tsdb": report_tsdb,
    "qos": report_qos,
    "shm": report_shm,
    "saturation": report_saturation,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the paper's tables and figures on the simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sweeps / fewer repetitions (same shapes, faster)",
    )
    parser.add_argument(
        "--json-dir", metavar="DIR", default=None,
        help="also write machine-readable BENCH_<experiment>.json files here",
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        text, payload = EXPERIMENTS[name](args.quick)
        print(text)
        print()
        if args.json_dir is not None:
            path = write_bench_json(name, payload, args.json_dir, quick=args.quick)
            print(f"wrote {path}")
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
