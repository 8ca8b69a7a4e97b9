"""Standalone offload target — ``python -m repro.backends.target_main``.

Runs a :class:`~repro.backends.tcp.TcpTargetServer` (default) or — with
``--transport shm`` — a :class:`~repro.backends.shm.ShmTargetServer` in
this process so a host in another terminal can offload to it. The
application modules named with ``--import`` are imported first so their
``@offloadable`` functions register — the runtime analogue of the
paper's "build the whole application for both sides".

Example::

    # terminal 1 (target)
    python -m repro.backends.target_main --port 7001 --import myapp.kernels

    # terminal 2 (host)
    from repro.backends import TcpBackend
    from repro.offload import Runtime
    runtime = Runtime(TcpBackend(("127.0.0.1", 7001)))

Shared-memory transport (same machine only — the segment name printed
at startup is what the host attaches to)::

    # terminal 1 (target)
    python -m repro.backends.target_main --transport shm --import myapp.kernels

    # terminal 2 (host)
    from repro.backends import ShmBackend
    runtime = Runtime(ShmBackend("repro-<pid>-xxxxxxxx"))  # name printed above

The shm target owns the segment: it creates it at startup and unlinks
it on shutdown, so an aborted host never leaves ``/dev/shm`` entries
behind.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.backends.tcp import TcpTargetServer

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-target",
        description="Run a HAM-Offload TCP target server.",
    )
    parser.add_argument(
        "--transport",
        choices=("tcp", "shm"),
        default="tcp",
        help="tcp listens on --host/--port; shm creates a shared-memory "
        "segment (same machine only) and prints its name for the host "
        "to attach to (default tcp)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (tcp)")
    parser.add_argument(
        "--port", type=int, default=0, help="port (tcp; 0 = ephemeral)"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-direction ring capacity for --transport shm "
        "(default 1 MiB)",
    )
    parser.add_argument(
        "--import",
        dest="imports",
        action="append",
        default=[],
        metavar="MODULE",
        help="application module to import (repeatable); its @offloadable "
        "functions become callable by the host",
    )
    args = parser.parse_args(argv)

    for module_name in args.imports:
        try:
            importlib.import_module(module_name)
        except ImportError as exc:
            print(f"error: cannot import {module_name!r}: {exc}", file=sys.stderr)
            return 2

    if args.transport == "shm":
        from repro.backends.shm import (
            DEFAULT_RING_CAPACITY,
            ShmSegment,
            ShmTargetServer,
        )

        segment = ShmSegment.create(args.capacity or DEFAULT_RING_CAPACITY)
        try:
            shm_server = ShmTargetServer(segment)
            print(
                f"HAM-Offload target on shared-memory segment {segment.name}",
                flush=True,
            )
            print(
                "offloadable types registered: "
                f"{shm_server.image.catalog and len(shm_server.image.catalog)}",
                flush=True,
            )
            shm_server.serve_forever()
            print("client disconnected; target shutting down", flush=True)
        finally:
            segment.close()
            segment.unlink()
        return 0

    server = TcpTargetServer(host=args.host, port=args.port)
    host, port = server.address
    print(f"HAM-Offload target listening on {host}:{port}", flush=True)
    print(
        f"offloadable types registered: {server.image.catalog and len(server.image.catalog)}",
        flush=True,
    )
    server.serve_forever()
    print("client disconnected; target shutting down", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
