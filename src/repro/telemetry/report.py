"""Human-readable trace summary — ``python -m repro.telemetry.report``.

Reads a Chrome ``trace_event`` file written by
:func:`repro.telemetry.export.write_chrome_trace` and prints per-phase
latency percentiles::

    python -m repro.telemetry.report trace.json
    python -m repro.telemetry.report trace.json --prefix offload.
    python -m repro.telemetry.report trace.json --per-message
    python -m repro.telemetry.report trace.json --critical-path
    python -m repro.telemetry.report trace.json --profile
    python -m repro.telemetry.report trace.json --format json

Passing a *directory* reads it as a flight-recorder crash bundle
(see :mod:`repro.telemetry.flightrecorder`) instead: the manifest, each
runtime's window occupancy and policy at dump time (``state.json``), and
a tally of the recorded control-plane events::

    python -m repro.telemetry.report /var/crash/repro/crash-1234-1-node_down

The default table covers every span name (one row per phase: serialize,
enqueue, transport, execute, reply, deserialize, ...), with count,
p50/p95, mean and total time, plus the trace's instantaneous events
(faults, retries, health transitions) grouped by name.

``--per-message`` groups the records by distributed ``trace_id`` (one
row per offload, across processes); ``--critical-path`` prints each
message's exact phase-by-phase timeline, including the uncovered
``(wait)`` stretches where the wire time lives. ``--profile``
reconstructs per-kernel continuous profiles from the trace and ranks
kernels by total (or, with ``--profile-sort tail``, p99) round-trip
time. ``--format json`` emits the same data machine-readably.
"""

from __future__ import annotations

import argparse
import json
import time as _time
from collections import Counter as _TallyCounter
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.bench.tables import format_time, render_table
from repro.telemetry import flightrecorder
from repro.telemetry.distributed import group_by_trace, trace_summary
from repro.telemetry.export import (
    Record,
    dicts_to_records,
    durations_by_name,
    parse_chrome_trace,
)
from repro.telemetry.metrics import LogHistogram, percentile

__all__ = [
    "main",
    "profile_from_records",
    "render_bundle",
    "render_critical_paths",
    "render_per_message",
    "render_profile",
    "render_profile_table",
    "render_report",
    "summarize",
]


def summarize(
    records: Sequence[Record], prefix: str = ""
) -> dict[str, dict[str, float]]:
    """Per-span-name latency summary: count, p50, p95, mean, total.

    Times are seconds. ``prefix`` filters span names (e.g. ``offload.``).
    """
    summary: dict[str, dict[str, float]] = {}
    for name, durations in sorted(durations_by_name(records, prefix).items()):
        total = sum(durations)
        summary[name] = {
            "count": len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "mean": total / len(durations),
            "total": total,
        }
    return summary


def render_report(records: Sequence[Record], prefix: str = "") -> str:
    """Render the span-percentile table plus an event tally."""
    summary = summarize(records, prefix)
    if not summary:
        span_table = "no spans matched" + (f" prefix {prefix!r}" if prefix else "")
    else:
        rows = [
            {
                "phase": name,
                "count": stats["count"],
                "p50": format_time(stats["p50"]),
                "p95": format_time(stats["p95"]),
                "mean": format_time(stats["mean"]),
                "total": format_time(stats["total"]),
            }
            for name, stats in summary.items()
        ]
        span_table = render_table(rows, title="span latencies per phase")
    tally: _TallyCounter[str] = _TallyCounter(
        r.name for r in records if r.kind == "event"
    )
    if not tally:
        return span_table
    event_rows = [
        {"event": name, "count": count} for name, count in sorted(tally.items())
    ]
    return span_table + "\n\n" + render_table(event_rows, title="events")


def per_message_summaries(records: Sequence[Record]) -> list[dict[str, Any]]:
    """One digest per distributed trace, ordered by first timestamp."""
    groups = group_by_trace(records)
    summaries = [trace_summary(group) for group in groups.values()]
    summaries.sort(key=lambda s: min(
        (seg["start_ns"] for seg in s["critical_path"]), default=0
    ))
    return summaries


def render_per_message(records: Sequence[Record]) -> str:
    """Table with one row per distributed trace (= one offload)."""
    summaries = per_message_summaries(records)
    if not summaries:
        return "no traced messages (records carry no trace_id)"
    rows = [
        {
            "trace": summary["trace_id"][:16],
            "spans": summary["spans"],
            "events": summary["events"],
            "pids": "+".join(str(pid) for pid in summary["pids"]),
            "total": format_time(summary["total_ns"] / 1e9),
        }
        for summary in summaries
    ]
    return render_table(rows, title="per-message traces")


def render_critical_paths(records: Sequence[Record]) -> str:
    """Phase-by-phase breakdown of every distributed trace."""
    summaries = per_message_summaries(records)
    if not summaries:
        return "no traced messages (records carry no trace_id)"
    blocks: list[str] = []
    for summary in summaries:
        total = summary["total_ns"]
        rows = []
        for segment in summary["critical_path"]:
            duration = segment["duration_ns"]
            rows.append({
                "phase": segment["phase"],
                "pid": segment["pid"] or "-",
                "time": format_time(duration / 1e9),
                "share": f"{100.0 * duration / total:.1f}%" if total else "-",
            })
        blocks.append(render_table(
            rows,
            title=f"critical path {summary['trace_id'][:16]} "
                  f"(total {format_time(total / 1e9)})",
        ))
    return "\n\n".join(blocks)


#: Phase (and series leaf) of the whole issue->result round trip.
TOTAL_PHASE = "offload"


def profile_from_records(records: Sequence[Record]) -> dict[str, Any]:
    """Rebuild the per-kernel profiles from a trace file's records.

    The live recorder folds completions into ``kernel.<kernel>.offload``
    / ``.errors`` / ``.bytes`` as they happen
    (:mod:`repro.telemetry.signals`); offline the same quantities, and
    the per-phase histograms, are rebuilt per distributed trace: the kernel name comes from the
    ``offload.serialize`` span's ``functor`` attribute (falling back to
    the execute span's ``handler``), the round trip is the trace's wall
    extent, and every span feeds its phase histogram. Untraced records
    (no ``trace_id``) contribute nothing — they cannot be attributed to
    a kernel. Returned grouped: ``{kernel: {"kernel", "count", "errors",
    "bytes", "phases": {phase: summary}, "exemplar"}}``, the ``exemplar``
    being the trace id and round-trip time of the kernel's *slowest*
    offload, so a percentile row links to one concrete trace in the file.
    """
    profiles: dict[str, dict[str, Any]] = {}
    slowest: dict[str, tuple[int, str]] = {}
    for trace_id, group in group_by_trace(records).items():
        spans = [r for r in group if r.kind == "span"]
        if not spans:
            continue
        kernel = ""
        nbytes = 0
        error = False
        for span in spans:
            if not kernel and span.name == "offload.serialize":
                kernel = str(span.attrs.get("functor", ""))
                nbytes = int(span.attrs.get("bytes", 0) or 0)
            if not kernel and span.name == "offload.execute":
                kernel = str(span.attrs.get("handler", ""))
            if "error" in span.attrs:
                error = True
        kernel = kernel or "<unknown>"
        total_ns = max(s.end_ns for s in spans) - min(s.start_ns for s in spans)
        profile = profiles.setdefault(
            kernel, {"kernel": kernel, "errors": 0, "bytes": 0, "phases": {}})
        profile["errors"] += error
        profile["bytes"] += nbytes
        for phase, duration_ns in [(TOTAL_PHASE, total_ns)] + [
                (span.name, span.duration_ns) for span in spans]:
            profile["phases"].setdefault(phase, LogHistogram()).observe(
                duration_ns / 1e9)
        if trace_id and total_ns >= slowest.get(kernel, (-1, ""))[0]:
            slowest[kernel] = (total_ns, str(trace_id))
    snapshot: dict[str, Any] = {}
    for kernel, profile in sorted(profiles.items()):
        hists = profile["phases"]
        snapshot[kernel] = {
            **profile, "count": hists[TOTAL_PHASE].count,
            "phases": {p: h.summary() for p, h in sorted(hists.items())},
        }
        if kernel in slowest:
            total_ns, trace_id = slowest[kernel]
            snapshot[kernel]["exemplar"] = {
                "trace_id": trace_id, "total_ns": total_ns,
            }
    return snapshot


def render_profile_table(
    snapshot: Mapping[str, Mapping[str, Any]],
    *,
    sort_by: str = "total",
    limit: int | None = None,
) -> str:
    """Rank kernels by total or tail time for ``report.py --profile``.

    ``snapshot`` is :func:`profile_from_records` output (or the same
    shape reconstructed from JSON). Sorting is by cumulative wall time
    in the ``offload`` phase (``sort_by="total"``) or by its p99
    (``sort_by="tail"``). Summaries carrying an ``exemplar`` (the
    slowest offload's trace id, attached by :func:`profile_from_records`)
    grow an extra column linking each row to one concrete trace.
    """
    if sort_by not in ("total", "tail"):
        raise ValueError(f"sort_by must be 'total' or 'tail', got {sort_by!r}")

    def _key(item: tuple[str, Mapping[str, Any]]) -> float:
        summary = item[1].get("phases", {}).get(TOTAL_PHASE, {})
        if sort_by == "tail":
            return float(summary.get("p99", 0.0))
        return float(summary.get("mean", 0.0)) * float(summary.get("count", 0))

    with_exemplars = any(
        isinstance(summary.get("exemplar"), Mapping)
        for summary in snapshot.values()
    )
    rows: list[dict[str, str]] = []
    ranked: Iterable[tuple[str, Mapping[str, Any]]] = sorted(
        snapshot.items(), key=_key, reverse=True
    )
    for name, summary in ranked:
        total = summary.get("phases", {}).get(TOTAL_PHASE, {})
        count = int(summary.get("count", 0))
        mean = float(total.get("mean", 0.0))
        row = {
            "kernel": name,
            "count": str(count),
            "errors": str(int(summary.get("errors", 0))),
            "bytes": f"{int(summary.get('bytes', 0)):,}",
            "total_s": f"{mean * int(total.get('count', 0)):.4f}",
            "p50_ms": f"{float(total.get('p50', 0.0)) * 1e3:.3f}",
            "p95_ms": f"{float(total.get('p95', 0.0)) * 1e3:.3f}",
            "p99_ms": f"{float(total.get('p99', 0.0)) * 1e3:.3f}",
        }
        if with_exemplars:
            exemplar = summary.get("exemplar") or {}
            trace_id = str(exemplar.get("trace_id", "") or "-")
            row["slowest_trace"] = trace_id[:16] or "-"
        rows.append(row)
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "no kernel profiles recorded"

    headers = list(rows[0])
    widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(row[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def render_profile(records: Sequence[Record], sort_by: str = "total") -> str:
    """The ``--profile`` view: kernels ranked by total or tail time."""
    return render_profile_table(profile_from_records(records), sort_by=sort_by)


def render_bundle(bundle: dict[str, Any]) -> str:
    """Render a loaded crash bundle: manifest, runtime state, events.

    ``bundle`` is the dict from
    :func:`repro.telemetry.flightrecorder.load_bundle`. The recent
    control-plane events reuse the standard event-tally rendering; the
    last few events are listed verbatim — in a post-mortem, the final
    seconds matter more than the aggregate.
    """
    manifest = bundle.get("manifest") or {}
    when = manifest.get("time_ns")
    stamp = (
        _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(when / 1e9))
        if isinstance(when, (int, float)) and when else "?"
    )
    lines = [
        f"crash bundle: reason={manifest.get('reason', '?')} "
        f"pid={manifest.get('pid', '?')} at {stamp}",
        f"  events retained {manifest.get('events', 0)} "
        f"(noted {manifest.get('noted', 0)}, "
        f"dropped {manifest.get('dropped', 0)}, "
        f"suppressed triggers {manifest.get('suppressed_triggers', 0)})",
        f"  offloads pending at dump: {manifest.get('pending', 0)}",
    ]
    if manifest.get("attrs"):
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(manifest["attrs"].items())
        )
        lines.append(f"  trigger attrs: {attrs}")
    if bundle.get("skipped_lines"):
        lines.append(
            f"  ({bundle['skipped_lines']} truncated event line(s) skipped)"
        )
    for entry in bundle.get("state") or []:
        if "error" in entry:
            lines.append(f"  in flight: <{entry['error']}>")
            continue
        window = entry.get("window") or {}
        handles = window.get("handles") or []
        shown = ", ".join(str(handle.get("corr")) for handle in handles[:8])
        if len(handles) > 8:
            shown += ", ..."
        lines.append(
            f"  in flight: {window.get('in_flight', 0)}/"
            f"{window.get('limit', 0)} on "
            f"{(entry.get('backend') or {}).get('backend', '?')}"
            + (f"  [{shown}]" if shown else "")
        )
        if entry.get("policy"):
            lines.append("  policy: " + " ".join(
                f"{key}={value}"
                for key, value in sorted(entry["policy"].items())
            ))
    events = bundle.get("events") or []
    if not events:
        lines.append("\nno recorded events")
        return "\n".join(lines)
    records = dicts_to_records(events)
    tail = [
        f"  {row.get('name', '?')} "
        + " ".join(
            f"{key}={value}"
            for key, value in sorted((row.get("attrs") or {}).items())
        )
        for row in events[-10:]
    ]
    return "\n".join(
        lines
        + ["", render_report(records), "", "last events:"]
        + tail
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-telemetry-report",
        description="Summarize a telemetry trace (Chrome trace_event JSON): "
        "per-phase latency percentiles and event tallies.",
    )
    parser.add_argument("trace", help="trace file written by repro.telemetry.export")
    parser.add_argument(
        "--prefix", default="",
        help="only summarize spans whose name starts with this prefix",
    )
    parser.add_argument(
        "--per-message", action="store_true",
        help="group by distributed trace_id: one row per offload",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="per-message phase-by-phase timeline (implies trace grouping)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="per-kernel continuous profile reconstructed from the trace",
    )
    parser.add_argument(
        "--profile-sort", choices=("total", "tail"), default="total",
        help="rank --profile kernels by cumulative time or p99 (default: total)",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    args = parser.parse_args(argv)
    path = Path(args.trace)
    if path.is_dir():
        try:
            bundle = flightrecorder.load_bundle(path)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load crash bundle {args.trace!r}: {exc}")
        if args.format == "json":
            print(json.dumps(bundle, indent=2, sort_keys=True, default=str))
        else:
            print(render_bundle(bundle))
        return 0
    try:
        records = parse_chrome_trace(path)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load {args.trace!r}: {exc}")
    if not records:
        # An empty trace is a fact worth one line, not a crash: report
        # it and exit cleanly so pipelines can treat it as "nothing ran".
        print("no records")
        return 0
    if args.format == "json":
        payload: dict[str, Any] = {"phases": summarize(records, args.prefix)}
        if args.per_message or args.critical_path:
            payload["messages"] = per_message_summaries(records)
        if args.profile:
            payload["profile"] = profile_from_records(records)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    sections = []
    if args.per_message:
        sections.append(render_per_message(records))
    if args.critical_path:
        sections.append(render_critical_paths(records))
    if args.profile:
        sections.append(render_profile(records, args.profile_sort))
    if not sections:
        sections.append(render_report(records, args.prefix))
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
