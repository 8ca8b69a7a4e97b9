"""Cross-process trace assembly: clock alignment and critical paths.

A distributed trace (one ``trace_id`` minted at ``offload()``, carried in
the version-2 active-message header) spans two processes whose
``perf_counter_ns`` clocks need not agree — a remote target has its own
epoch, and even a forked local server drifts once NTP steps in. This
module turns the two half-traces into one timeline:

1. :class:`ClockSync` estimates the target->host clock offset with the
   classic ping-pong (Cristian / NTP) estimator: the target timestamp is
   assumed to sit at the midpoint of the request/reply round trip, and
   the round with the smallest RTT bounds the error tightest.
2. :func:`align_records` rewrites target-side records onto the host
   clock using that offset. ``fetch_target_telemetry`` of the tcp and
   shm backends does both whenever it pulls a target's records.
3. :func:`group_by_trace` and :func:`critical_path` break a merged
   trace into its per-message phase sequence — serialize, enqueue,
   execute, reply, deserialize, and the uncovered "(wait)" stretches in
   between, which is where the wire time lives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.telemetry.recorder import EventRecord, SpanRecord

__all__ = [
    "ClockSync",
    "align_records",
    "critical_path",
    "group_by_trace",
    "trace_summary",
]

Record = SpanRecord | EventRecord

#: A clock probe: returns ``(t0_host_ns, t_target_ns, t1_host_ns)`` for
#: one ping-pong round — host clock before send, target clock at the
#: server, host clock at reply receipt.
ClockProbe = Callable[[], tuple[int, int, int]]


@dataclass(frozen=True, slots=True)
class ClockSync:
    """Target-to-host clock mapping: ``host_ns = target_ns + offset_ns``.

    ``rtt_ns`` is the round-trip time of the best (minimum-RTT) probe —
    the estimate's error is bounded by half of it. ``samples`` counts the
    probe rounds that produced the estimate; zero means identity (no
    estimation ran, e.g. a backend whose target shares the host clock).
    """

    offset_ns: int = 0
    rtt_ns: int = 0
    samples: int = 0

    @classmethod
    def identity(cls) -> "ClockSync":
        """No-op mapping (same clock on both sides)."""
        return cls()

    @classmethod
    def estimate(cls, probe: ClockProbe, rounds: int = 8) -> "ClockSync":
        """Ping-pong the target ``rounds`` times; keep the best round.

        Each round gives ``offset = t_target - (t0 + t1) / 2`` with error
        at most ``rtt / 2``; the minimum-RTT round is the tightest, so
        its offset wins (NTP's selection rule, without the clock
        discipline loop).
        """
        if rounds < 1:
            raise ValueError(f"need at least one probe round, got {rounds}")
        best_rtt: int | None = None
        best_offset = 0
        for _ in range(rounds):
            t0, t_target, t1 = probe()
            rtt = t1 - t0
            if rtt < 0:
                raise ValueError("clock probe went backwards (t1 < t0)")
            if best_rtt is None or rtt < best_rtt:
                best_rtt = rtt
                # host midpoint is the best guess of when the target
                # stamped its clock: offset maps target -> host.
                best_offset = (t0 + t1) // 2 - t_target
        assert best_rtt is not None
        return cls(offset_ns=best_offset, rtt_ns=best_rtt, samples=rounds)


def align_records(records: Iterable[Record], offset_ns: int) -> list[Record]:
    """Shift records onto the host clock (``+offset_ns`` on timestamps)."""
    if offset_ns == 0:
        return list(records)
    shifted: list[Record] = []
    for record in records:
        if record.kind == "span":
            shifted.append(
                dataclasses.replace(record, start_ns=record.start_ns + offset_ns)
            )
        else:
            shifted.append(
                dataclasses.replace(record, ts_ns=record.ts_ns + offset_ns)
            )
    return shifted


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
    (execute parenting to the host's serialize span) does not demote the
    host span, since the two run in different processes and both are
    real phases. The walk attributes every nanosecond between the first
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
