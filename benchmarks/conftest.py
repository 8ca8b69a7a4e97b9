"""Shared infrastructure for the reproduction benchmarks.

Each benchmark module computes its experiment's data once (module-scoped
fixture) on the simulated platform, asserts the paper anchors and
registers a paper-style report. Everything is simulated time: no module
here reads a clock (``tests/bench/test_reports.py`` enforces it).

Reports are printed in the terminal summary (so they appear even under
output capture) and written to ``benchmarks/results/<experiment>.txt``.
Those files are committed and deterministic, which makes them the
paper-fidelity baseline: ``python -m pytest benchmarks -q`` rewrites them
in place and ``git diff --exit-code -- benchmarks/results`` must then
print nothing (CONTRIBUTING.md, "Which command gates what").
"""

from __future__ import annotations

import pathlib

import pytest

_REPORTS: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """Register a named report section: ``report(experiment_id, text)``."""

    def _register(experiment: str, text: str) -> None:
        _REPORTS.append((experiment, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        path = _RESULTS_DIR / f"{experiment}.txt"
        path.write_text(text + "\n")

    return _register


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction reports")
    for experiment, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {experiment}")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(reports also written to {_RESULTS_DIR}/)"
    )
