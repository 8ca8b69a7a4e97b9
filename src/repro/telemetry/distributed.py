"""Cross-process trace assembly: groups and critical paths.

A distributed trace (one ``trace_id`` minted at ``offload()``, carried in
the version-2 active-message header) covers both ends of an offload: the
host's phases and the target's ``offload.execute``, whose duration the
target's version-3 reply carries back — a duration needs no clock
offset, so the records sit on the host's clock as they are.
:func:`group_by_trace` and :func:`critical_path` break a trace into its
per-message phase sequence — serialize, enqueue, execute, reply,
deserialize, and the uncovered "(wait)" stretches in between, which is
where the wire time lives.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.telemetry.recorder import EventRecord, SpanRecord

__all__ = [
    "critical_path",
    "group_by_trace",
    "trace_summary",
]

Record = SpanRecord | EventRecord


def _record_start(record: Record) -> int:
    return record.start_ns if record.kind == "span" else record.ts_ns


def group_by_trace(records: Iterable[Record]) -> dict[str, list[Record]]:
    """Records bucketed by ``trace_id`` (untraced ones are skipped)."""
    groups: dict[str, list[Record]] = {}
    for record in records:
        if record.trace_id:
            groups.setdefault(record.trace_id, []).append(record)
    for group in groups.values():
        group.sort(key=_record_start)
    return groups


def critical_path(records: Iterable[Record]) -> list[dict[str, Any]]:
    """Phase-by-phase walk of one trace's records.

    Takes the *leaf* spans of one trace in timeline order — a leaf has
    no child span within its own process; the cross-process link
    (a remote target's execute parenting to the host's transport) does
    not demote the host span, since the two run in different processes
    and both are real phases. The walk attributes every nanosecond between the first
    leaf's start and the last leaf's end either to a leaf phase or to an
    uncovered ``(wait)`` segment — on a merged two-process trace the
    waits are the wire transfers and queueing. When two leaves overlap
    (host ``enqueue`` still closing while the target already executes),
    the later-starting one takes over at its start: downstream progress
    is the critical path. Returns dicts with ``phase``, ``start_ns``,
    ``duration_ns``, ``pid``.
    """
    spans = sorted(
        (r for r in records if r.kind == "span"), key=lambda s: s.start_ns
    )
    if not spans:
        return []
    by_id = {s.span_id: s for s in spans}
    local_parents = set()
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.pid == span.pid:
            local_parents.add(parent.span_id)
    leaves = [s for s in spans if s.span_id not in local_parents]
    t_end = max(s.end_ns for s in spans)
    segments: list[dict[str, Any]] = []
    cursor = leaves[0].start_ns
    for index, span in enumerate(leaves):
        if span.start_ns > cursor:
            segments.append({
                "phase": "(wait)",
                "start_ns": cursor,
                "duration_ns": span.start_ns - cursor,
                "pid": 0,
            })
            cursor = span.start_ns
        end = span.end_ns
        if index + 1 < len(leaves):
            # Hand over to the next phase the moment it starts.
            end = min(end, max(leaves[index + 1].start_ns, cursor))
        if end > cursor:
            segments.append({
                "phase": span.name,
                "start_ns": cursor,
                "duration_ns": end - cursor,
                "pid": span.pid,
            })
            cursor = end
    if cursor < t_end:
        segments.append({
            "phase": "(wait)",
            "start_ns": cursor,
            "duration_ns": t_end - cursor,
            "pid": 0,
        })
    return segments


def trace_summary(records: Iterable[Record]) -> dict[str, Any]:
    """Per-message digest of one trace: total, phases, processes."""
    group = list(records)
    spans = [r for r in group if r.kind == "span"]
    events = [r for r in group if r.kind == "event"]
    path = critical_path(group)
    total_ns = 0
    if spans:
        total_ns = max(s.end_ns for s in spans) - min(s.start_ns for s in spans)
    return {
        "trace_id": group[0].trace_id if group else "",
        "total_ns": total_ns,
        "spans": len(spans),
        "events": len(events),
        "pids": sorted({r.pid for r in group}),
        "critical_path": path,
    }
