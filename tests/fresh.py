"""Run code in a fresh interpreter that sees ``src/`` and ``tests``.

For what a test can only learn from a process of its own: what an
import loads (``tests/test_import_graph.py``), what the scheduler does
to a forked target (``tests/offload/test_offload_budget.py``).
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, f"{code}\n{result.stderr[-2000:]}"
    return result.stdout
