"""``repro top``: a live terminal view of a running offload session.

Polls the metrics server's ``/introspect`` endpoint (see
:mod:`repro.telemetry.inspect`) and renders the merged host + target
snapshot as one compact frame per interval — window occupancy, tenant
queue depths, health verdicts, shm ring fill levels, worker-pool depth
and the flight recorder's counters. Think ``top`` for the offload
runtime: the first tool to point at a session that looks wedged.

Usage::

    python -m repro.telemetry.top http://127.0.0.1:9100
    python -m repro.telemetry.top http://127.0.0.1:9100 --once
    python -m repro.telemetry.top http://127.0.0.1:9100 --json

``--json`` dumps the raw snapshot once for scripts.

Rendering is a pure function (:func:`render_frame`) over the snapshot
dict, so tests and offline tooling can feed it saved payloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

__all__ = ["fetch_snapshot", "main", "render_frame"]

#: ANSI clear-screen + cursor-home, prepended between live frames.
_CLEAR = "\x1b[2J\x1b[H"


def fetch_snapshot(url: str, timeout: float = 2.0) -> dict[str, Any]:
    """GET ``<url>/introspect`` and decode the JSON snapshot."""
    target = url.rstrip("/")
    if not target.endswith("/introspect"):
        target += "/introspect"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        payload = json.loads(response.read().decode())
    if not isinstance(payload, dict):
        raise ValueError(f"malformed introspection payload: {payload!r}")
    return payload


def _fmt_ring(ring: Mapping[str, Any] | None) -> str:
    if not ring:
        return "-"
    used = ring.get("used", 0)
    capacity = ring.get("capacity", 0) or 1
    extra = ""
    stalls = ring.get("sleep_stalls")
    if stalls:
        extra = f" ({stalls} stalls)"
    return f"{used}/{capacity} ({100.0 * used / capacity:.1f}%){extra}"


def _fmt_handles(handles: list) -> str:
    if not handles:
        return ""
    labels: dict[str, int] = {}
    for handle in handles:
        label = str(handle.get("label", "?"))
        labels[label] = labels.get(label, 0) + 1
    parts = [
        name if count == 1 else f"{name}x{count}"
        for name, count in sorted(labels.items())
    ]
    return "  [" + ", ".join(parts[:6]) + (", ..." if len(parts) > 6 else "") + "]"


def _host_lines(host: Mapping[str, Any]) -> list[str]:
    lines = [f"HOST  pid {host.get('pid', '?')}"]
    window = host.get("window") or {}
    lines.append(
        f"  window    {window.get('in_flight', 0)}/{window.get('limit', 0)}"
        f" in flight{_fmt_handles(window.get('handles') or [])}"
    )
    transport = host.get("backend") or {}
    backend = transport.get("backend", "?")
    if "request_ring" in transport:
        lines.append(
            f"  transport {backend}  req ring "
            f"{_fmt_ring(transport.get('request_ring'))}  reply ring "
            f"{_fmt_ring(transport.get('reply_ring'))}"
        )
    elif "send_queue_bytes" in transport:
        lines.append(
            f"  transport {backend}  send queue "
            f"{transport.get('send_queue_bytes', 0)} B  recv queue "
            f"{transport.get('recv_queue_bytes', 0)} B"
        )
    else:
        lines.append(f"  transport {backend}")
    if "pending_replies" in transport:
        lines[-1] += f"  pending replies {transport['pending_replies']}"
    qos = host.get("qos")
    if qos:
        tenants = qos.get("admission") or {}
        lines.append("  qos       admitted/rejected " + " ".join(
            f"{tenant}={entry.get('admitted', 0)}/{entry.get('rejected', 0)}"
            for tenant, entry in sorted(tenants.items())
        ))
    health = host.get("health")
    if isinstance(health, Mapping) and health:
        verdicts = " ".join(
            f"{node}:{record.get('health', '?')}"
            for node, record in sorted(health.items(), key=lambda kv: str(kv[0]))
            if isinstance(record, Mapping)
        )
        if verdicts:
            lines.append(f"  health    {verdicts}")
    return lines


def _target_lines(target: Mapping[str, Any] | None) -> list[str]:
    if target is None:
        return ["TARGET  (backend has no introspection support)"]
    if "error" in target:
        return [f"TARGET  unreachable: {target['error']}"]
    workers = target.get("workers") or {}
    workers_line = (
        f"  workers   {workers.get('active', 0)}/{workers.get('pool_size', 0)}"
        f" active   executed {target.get('messages_executed', 0)}"
        f"   buffers {target.get('live_buffers', 0)}"
    )
    dispatch = target.get("dispatch")
    if dispatch:  # framed targets: what the dispatch loop did
        workers_line += (
            f"   handoffs {dispatch.get('handoffs', 0)}"
            f"   promotions {dispatch.get('promotions', 0)}"
        )
        if dispatch.get("reader"):
            workers_line += f"   reader {dispatch['reader']}"
    lines = [
        f"TARGET  pid {target.get('pid', '?')} ({target.get('transport', '?')})",
        workers_line,
    ]
    rings = target.get("rings")
    if rings:
        lines.append(
            f"  rings     request {_fmt_ring(rings.get('request'))}"
            f"  reply {_fmt_ring(rings.get('reply'))}"
        )
    for sub in target.get("targets") or []:
        lines.append(
            f"    node {sub.get('node', '?')}: pid {sub.get('pid', '?')}"
            f" ({sub.get('transport', '?')})"
            f" active {sub.get('workers', {}).get('active', 0)}"
            f" executed {sub.get('messages_executed', 0)}"
        )
    return lines


def render_frame(snapshot: Mapping[str, Any], *, source: str = "") -> str:
    """Render one snapshot as a multi-line terminal frame (pure)."""
    if "error" in snapshot and "host" not in snapshot:
        return f"repro top — {source}\n\n  {snapshot['error']}\n"
    when = time.strftime("%H:%M:%S")
    lines = [f"repro top — {source}  ({when})", ""]
    lines.extend(_host_lines(snapshot.get("host") or {}))
    lines.append("")
    lines.extend(_target_lines(snapshot.get("target")))
    flight = snapshot.get("flight")
    if flight:
        lines.append("")
        dumps = flight.get("dumps") or []
        lines.append(
            f"FLIGHT  noted {flight.get('noted', 0)}"
            f"  dropped {flight.get('dropped', 0)}"
            f"  dumps {len(dumps)}"
            f"  crash_dir {flight.get('crash_dir') or '-'}"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.top",
        description="Live view of a running offload session's /introspect.",
    )
    parser.add_argument(
        "url",
        help="metrics server base URL, e.g. http://127.0.0.1:9100 "
             "(offload.init(telemetry={'metrics_port': ...}) prints it)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between frames (default 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one raw snapshot as JSON and exit (implies --once; "
             "for scripts and dashboards)",
    )
    parser.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-poll HTTP timeout in seconds (default 2.0)",
    )
    args = parser.parse_args(argv)

    if args.json:
        try:
            snapshot = fetch_snapshot(args.url, timeout=args.timeout)
        except (OSError, ValueError, urllib.error.URLError) as exc:
            sys.stderr.write(f"unreachable: {exc}\n")
            return 1
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    while True:
        try:
            snapshot = fetch_snapshot(args.url, timeout=args.timeout)
            frame = render_frame(snapshot, source=args.url)
            failed = False
        except (OSError, ValueError, urllib.error.URLError) as exc:
            frame = f"repro top — {args.url}\n\n  unreachable: {exc}\n"
            failed = True
        if args.once:
            sys.stdout.write(frame)
            return 1 if failed else 0
        sys.stdout.write(_CLEAR + frame)
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
