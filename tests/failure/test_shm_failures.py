"""Abnormal-exit behaviour of the shared-memory transport.

The segment is a kernel object with no connection semantics: nobody
gets an ECONNRESET when a peer dies. These tests pin down the
replacement guarantees — pending futures fail via ``_fail_pending``
when the target dies mid-offload, new work fails fast, and no
``/dev/shm`` entry or resource-tracker warning survives any exit path.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.backends import ShmBackend, spawn_shm_server
from repro.errors import BackendError
from repro.ham import f2f
from repro.offload import Runtime

from tests import apps


def _spawned_runtime():
    process, segment = spawn_shm_server()
    backend = ShmBackend(
        segment,
        alive_fn=process.is_alive,
        on_shutdown=lambda: process.join(timeout=5),
    )
    return process, segment, backend, Runtime(backend)


class TestTargetDeath:
    def test_kill_mid_offload_fails_pending_futures(self):
        process, segment, backend, runtime = _spawned_runtime()
        name = segment.name
        try:
            futures = [
                runtime.async_(1, f2f(apps.sleep_then, 30.0, i))
                for i in range(3)
            ]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)
            with pytest.raises(BackendError):
                futures[0].get(timeout=10.0)
            # _fail_pending settled *every* in-flight future, not just
            # the one being driven.
            for future in futures[1:]:
                with pytest.raises(BackendError):
                    future.get(timeout=1.0)
        finally:
            runtime.shutdown()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_new_work_fails_fast_after_target_death(self):
        process, _segment, backend, runtime = _spawned_runtime()
        try:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)
            start = time.monotonic()
            with pytest.raises(BackendError):
                runtime.sync(1, f2f(apps.add, 1, 1))
            # Detection is a pid probe, not a multi-second timeout.
            assert time.monotonic() - start < 5.0
            with pytest.raises(BackendError):
                backend.ping(1)
        finally:
            runtime.shutdown()

    def test_shutdown_after_death_still_unlinks(self):
        process, segment, _backend, runtime = _spawned_runtime()
        name = segment.name
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5)
        runtime.shutdown()  # must tolerate the dead peer
        assert not os.path.exists(f"/dev/shm/{name}")


class TestCleanExit:
    def test_no_resource_tracker_warnings(self):
        """A full spawn/offload/shutdown cycle in a fresh interpreter
        must exit silently: no leaked-segment warnings from either
        process's resource tracker."""
        script = textwrap.dedent(
            """
            from repro.backends import ShmBackend, spawn_shm_server
            from repro.offload import Runtime
            from repro.ham import f2f
            from tests import apps

            process, segment = spawn_shm_server()
            backend = ShmBackend(
                segment,
                alive_fn=process.is_alive,
                on_shutdown=lambda: process.join(timeout=5),
            )
            runtime = Runtime(backend)
            assert runtime.sync(1, f2f(apps.add, 2, 3)) == 5
            runtime.shutdown()
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, ["src", os.environ.get("PYTHONPATH")])
                ),
            },
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr
        assert "leaked" not in result.stderr

    @pytest.mark.slow_failure
    def test_host_sigkill_leaves_no_orphans(self):
        """SIGKILL the *host* mid-offload: the target notices the dead
        client and exits, and the host's resource tracker unlinks the
        segment — no /dev/shm entry and no stray server process."""
        script = textwrap.dedent(
            """
            import os, signal
            from repro.backends import ShmBackend, spawn_shm_server
            from repro.offload import Runtime
            from repro.ham import f2f
            from tests import apps

            process, segment = spawn_shm_server()
            backend = ShmBackend(
                segment,
                alive_fn=process.is_alive,
                on_shutdown=lambda: process.join(timeout=5),
            )
            runtime = Runtime(backend)
            runtime.async_(1, f2f(apps.sleep_then, 3.0, "doomed"))
            print(segment.name, process.pid, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        # Popen, not run(): the forked target inherits the stdout pipe,
        # so waiting for EOF would block until *it* exits too. Read the
        # one line we need, then watch pids and /dev/shm directly.
        host = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, ["src", os.environ.get("PYTHONPATH")])
                ),
            },
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            name, server_pid = host.stdout.readline().split()
            server_pid = int(server_pid)
            assert host.wait(timeout=30) == -signal.SIGKILL
        finally:
            host.stdout.close()
            if host.poll() is None:  # pragma: no cover - cleanup safety
                host.kill()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.kill(server_pid, 0)
                server_alive = True
            except OSError:
                server_alive = False
            if not server_alive and not os.path.exists(f"/dev/shm/{name}"):
                break
            time.sleep(0.2)
        try:
            os.kill(server_pid, 0)
            pytest.fail("target server survived its client's death")
        except OSError:
            pass
        assert not os.path.exists(f"/dev/shm/{name}")
