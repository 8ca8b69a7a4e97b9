"""Experiment T1 — telemetry sampling overhead on the offload path.

Observability must be cheap enough to leave on: the acceptance bar is
<= 5% added round-trip latency at ``sample_rate=0.01`` versus telemetry
disabled entirely. The experiment measures TCP round trips of a
representative millisecond-scale kernel under four modes (disabled, and
head sampling at 0.0 / 0.01 / 1.0 with the tail-retention pipeline
installed) on identical fresh servers.

The gate uses the overhead *ratio*, which divides out machine speed —
the absolute means in the committed baseline are informational.

A second gate bounds the flight recorder (the always-on post-mortem
ring): the sampling baseline runs with it armed, ``flight_off`` runs
with noting disabled, and their ratio must clear the same 5% budget.

5 % of that 10 ms kernel is 500 us — several traced offloads — so the
ratio cannot see what telemetry costs an *empty* offload. Experiment T1b
measures that in absolute microseconds on ``local`` (rates 0, 0.01, 1);
it is reported here and gated by ``python -m repro.bench.regression``
against ``benchmarks/results/baseline/BENCH_telemetry.json``, not against
a constant in this file.
"""

import pytest

from repro.bench.cli import telemetry_empty_kernel_rows
from repro.bench.experiments import (
    measure_telemetry_empty_kernel,
    measure_telemetry_overhead,
)
from repro.bench.tables import format_time, render_table

OVERHEAD_BUDGET = 1.05  # <= 5% at sample_rate=0.01, per the acceptance bar

_MODES = (
    ("flight_off", "disabled + flight recorder off"),
    ("disabled", "disabled"),
    ("rate_0", "sample_rate=0.0"),
    ("rate_0_01", "sample_rate=0.01"),
    ("rate_1", "sample_rate=1.0"),
)


@pytest.fixture(scope="module")
def overhead_data():
    data = measure_telemetry_overhead(invokes=100)
    if (  # one retry absorbs scheduler noise on either gated ratio
        data["overhead_rate_0_01"] > OVERHEAD_BUDGET
        or data["overhead_flight_on"] > OVERHEAD_BUDGET
    ):
        data = measure_telemetry_overhead(invokes=100)
    return data


@pytest.fixture(scope="module")
def overhead_report(report, overhead_data):
    rows = [
        {"telemetry": label,
         "round trip": format_time(overhead_data[f"{mode}_mean_us"] / 1e6),
         "vs disabled": (
             f"{(overhead_data[f'overhead_{mode}'] - 1.0) * 100:+.1f}%"
             if f"overhead_{mode}" in overhead_data else "-"
         )}
        for mode, label in _MODES
    ]
    rows.append({
        "telemetry": "flight recorder cost",
        "round trip": "-",
        "vs disabled":
            f"{(overhead_data['overhead_flight_on'] - 1.0) * 100:+.1f}%",
    })
    text = render_table(
        rows, title="T1 — telemetry sampling overhead (TCP round trip)"
    )
    report("telemetry_overhead", text)
    return rows


class TestTelemetryOverhead:
    def test_low_rate_sampling_within_budget(self, overhead_data, overhead_report):
        """The acceptance criterion: sampling at 0.01 costs <= 5% of the
        telemetry-disabled round trip."""
        assert overhead_data["overhead_rate_0_01"] <= OVERHEAD_BUDGET

    def test_rate_zero_not_slower_than_low_rate_bound(self, overhead_data):
        # rate 0.0 does strictly less work than 0.01 (no trace is ever
        # retained), so it must clear the same budget.
        assert overhead_data["overhead_rate_0"] <= OVERHEAD_BUDGET

    def test_flight_recorder_within_budget(self, overhead_data):
        """The always-on flight recorder must stay free on the happy
        path: armed vs disabled within the same 5% budget."""
        assert overhead_data["overhead_flight_on"] <= OVERHEAD_BUDGET

    def test_all_modes_measured(self, overhead_data):
        for mode, _label in _MODES:
            assert overhead_data[f"{mode}_mean_us"] > 0.0


class TestEmptyKernelCost:
    def test_added_cost_per_empty_offload_is_reported(self, report):
        data = measure_telemetry_empty_kernel()
        report("telemetry_empty_kernel", render_table(
            telemetry_empty_kernel_rows(data),
            title="T1b — telemetry's cost per empty offload (local)",
        ))
        # Every mode ran and recording costs something; how much is the
        # regression gate's business.
        assert data["cost_us_disabled"] > 0.0
        for mode in ("rate_0", "rate_0_01", "rate_1"):
            assert data[f"added_cost_us_{mode}"] > 0.0
