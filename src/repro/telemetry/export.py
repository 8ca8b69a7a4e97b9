"""Trace exporter: Chrome ``trace_event`` JSON, the one trace file format.

``parse_chrome_trace(to_chrome(records))`` reconstructs equivalent
:class:`~repro.telemetry.recorder.SpanRecord` /
:class:`~repro.telemetry.recorder.EventRecord` lists, which is what lets
the report CLI read a trace file and what the exporter round-trip tests
assert. The plain-dict rows of :func:`records_to_dicts` are not a file
format: they are the telemetry-fetch wire body and a crash bundle's
``events.jsonl`` lines.

Chrome format notes (the `trace_event` spec as consumed by
``chrome://tracing`` and https://ui.perfetto.dev):

* spans are complete events (``"ph": "X"``) with microsecond ``ts`` and
  ``dur`` fields;
* events are instant events (``"ph": "i"``, thread scope);
* timestamps are normalized so the earliest record sits at ``ts = 0`` —
  host and fetched target records share one timeline because
  ``perf_counter_ns`` reads the system-wide monotonic clock on Linux;
* ``span_id`` / ``parent_id`` ride along as extra top-level keys, which
  viewers ignore but the parser uses to rebuild nesting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.telemetry.recorder import EventRecord, Recorder, SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "dicts_to_records",
    "durations_by_name",
    "parse_chrome_trace",
    "records_to_dicts",
    "to_chrome",
    "write_chrome_trace",
]

#: Bump when the on-disk record shape changes incompatibly.
SCHEMA_VERSION = 1

Record = SpanRecord | EventRecord


def _coerce_records(
    source: Recorder | Iterable[Record],
) -> list[Record]:
    if isinstance(source, Recorder):
        return source.records()
    return list(source)


# --------------------------------------------------------------------------
# plain-dict rows (the telemetry-fetch wire body, a bundle's events.jsonl)
# --------------------------------------------------------------------------


def records_to_dicts(source: Recorder | Iterable[Record]) -> list[dict[str, Any]]:
    """Encode records as JSON-friendly dicts (schema-tagged rows)."""
    rows: list[dict[str, Any]] = []
    for record in _coerce_records(source):
        if record.kind == "span":
            rows.append({
                "type": "span",
                "name": record.name,
                "cat": record.category,
                "start_ns": record.start_ns,
                "dur_ns": record.duration_ns,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "pid": record.pid,
                "tid": record.tid,
                "attrs": record.attrs,
                "trace_id": record.trace_id,
            })
        else:
            rows.append({
                "type": "event",
                "name": record.name,
                "cat": record.category,
                "ts_ns": record.ts_ns,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "pid": record.pid,
                "tid": record.tid,
                "attrs": record.attrs,
                "trace_id": record.trace_id,
            })
    return rows


def dicts_to_records(rows: Iterable[dict[str, Any]]) -> list[Record]:
    """Decode rows produced by :func:`records_to_dicts`."""
    records: list[Record] = []
    for row in rows:
        if row.get("type") == "span":
            records.append(SpanRecord(
                name=row["name"],
                category=row.get("cat", "offload"),
                start_ns=int(row["start_ns"]),
                duration_ns=int(row["dur_ns"]),
                span_id=int(row.get("span_id", 0)),
                parent_id=int(row.get("parent_id", 0)),
                pid=int(row.get("pid", 0)),
                tid=int(row.get("tid", 0)),
                attrs=dict(row.get("attrs") or {}),
                trace_id=str(row.get("trace_id", "")),
            ))
        elif row.get("type") == "event":
            records.append(EventRecord(
                name=row["name"],
                category=row.get("cat", "offload"),
                ts_ns=int(row["ts_ns"]),
                span_id=int(row.get("span_id", 0)),
                parent_id=int(row.get("parent_id", 0)),
                pid=int(row.get("pid", 0)),
                tid=int(row.get("tid", 0)),
                attrs=dict(row.get("attrs") or {}),
                trace_id=str(row.get("trace_id", "")),
            ))
        else:
            raise ValueError(f"unknown record row type {row.get('type')!r}")
    return records


# --------------------------------------------------------------------------
# Chrome trace_event JSON
# --------------------------------------------------------------------------


def to_chrome(
    source: Recorder | Iterable[Record],
    *,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a Chrome/Perfetto ``trace_event`` object from records."""
    records = _coerce_records(source)
    starts = [r.start_ns if r.kind == "span" else r.ts_ns for r in records]
    origin_ns = min(starts) if starts else 0
    trace_events: list[dict[str, Any]] = []
    for record in records:
        if record.kind == "span":
            trace_events.append({
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "ts": (record.start_ns - origin_ns) / 1000.0,
                "dur": record.duration_ns / 1000.0,
                "pid": record.pid,
                "tid": record.tid,
                "args": record.attrs,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "trace_id": record.trace_id,
            })
        else:
            trace_events.append({
                "name": record.name,
                "cat": record.category,
                "ph": "i",
                "s": "t",
                "ts": (record.ts_ns - origin_ns) / 1000.0,
                "pid": record.pid,
                "tid": record.tid,
                "args": record.attrs,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "trace_id": record.trace_id,
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {
            "schema_version": SCHEMA_VERSION,
            "origin_ns": origin_ns,
            **(metadata or {}),
        },
    }


def write_chrome_trace(
    path: str | Path,
    source: Recorder | Iterable[Record],
    *,
    metadata: dict[str, Any] | None = None,
) -> Path:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome(source, metadata=metadata), indent=1))
    return path


def parse_chrome_trace(source: str | Path | dict[str, Any]) -> list[Record]:
    """Rebuild records from a Chrome trace object or file.

    The inverse of :func:`to_chrome` up to the trace's normalized time
    origin (timestamps come back relative to the earliest record).
    """
    if isinstance(source, (str, Path)):
        obj = json.loads(Path(source).read_text())
    else:
        obj = source
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("not a Chrome trace_event object (no traceEvents)")
    entries = obj["traceEvents"]
    if not isinstance(entries, list):
        raise ValueError("traceEvents is not a list")
    records: list[Record] = []
    for index, entry in enumerate(entries):
        try:
            phase = entry.get("ph")
            common = dict(
                name=str(entry["name"]),
                category=entry.get("cat", "offload"),
                span_id=int(entry.get("span_id", 0)),
                parent_id=int(entry.get("parent_id", 0)),
                pid=int(entry.get("pid", 0)),
                tid=int(entry.get("tid", 0)),
                attrs=dict(entry.get("args") or {}),
                trace_id=str(entry.get("trace_id", "")),
            )
            if phase == "X":
                records.append(SpanRecord(
                    start_ns=int(round(entry["ts"] * 1000)),
                    duration_ns=int(round(entry["dur"] * 1000)),
                    **common,
                ))
            elif phase == "i":
                records.append(EventRecord(
                    ts_ns=int(round(entry["ts"] * 1000)),
                    **common,
                ))
            # Other phases (metadata events, counters) are ignored.
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            # One line for the report CLI, naming the entry at fault.
            raise ValueError(
                f"traceEvents[{index}] is malformed: {exc!r}") from None
    return records


def durations_by_name(
    records: Sequence[Record], prefix: str = ""
) -> dict[str, list[float]]:
    """Group span durations (seconds) by span name, optionally filtered."""
    groups: dict[str, list[float]] = {}
    for record in records:
        if record.kind != "span" or not record.name.startswith(prefix):
            continue
        groups.setdefault(record.name, []).append(record.duration_ns / 1e9)
    return groups
