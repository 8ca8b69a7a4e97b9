"""Benchmarking framework for the reproduction.

``harness``
    The paper's measurement protocol (Sec. V): warm-up iterations, many
    repetitions, averages — applied to simulated time (the real path's
    wall clock is ``perfbench/``'s).
``stats``
    Summary statistics of a measurement series.
``tables`` / ``figures``
    Paper-style rendering of result tables and bandwidth figures
    (ASCII, suitable for terminal output and result files).
``calibration``
    Every quantitative anchor extracted from the paper's text, and the
    checks comparing model/protocol output against them.
"""

from repro.bench.calibration import PAPER, CalibrationCheck, check_timing_model
from repro.bench.harness import measure_sim, scaled_reps
from repro.bench.stats import Stats
from repro.bench.tables import format_bandwidth, format_time, render_table
from repro.bench.figures import ascii_chart, render_series

__all__ = [
    "CalibrationCheck",
    "PAPER",
    "Stats",
    "ascii_chart",
    "check_timing_model",
    "format_bandwidth",
    "format_time",
    "measure_sim",
    "render_series",
    "render_table",
    "scaled_reps",
]
