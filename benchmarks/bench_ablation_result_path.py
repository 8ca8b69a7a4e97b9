"""Experiment A3 — ablation: SHM stores vs user DMA for result messages.

Paper Sec. V-B: "the store instruction (SHM) outperforms VE user DMA for
payloads of up to 256 byte ... This could be exploited for small
messages, sent from the VE to the VH." The DMA protocol does exactly
that — result messages travel as posted SHM stores. Here we run the full
protocol with both result paths across result payload sizes and locate
the crossover.
"""

import pytest

from repro.backends import DmaCommBackend
from repro.bench.harness import measure_sim
from repro.bench.tables import format_size, format_time, render_table
from repro.ham import f2f, offloadable
from repro.offload import Runtime

RESULT_SIZES = [8, 64, 256, 1024, 4096, 16384]
REPS = 20


@offloadable
def produce_payload(n: int) -> bytes:
    """Returns an n-byte result — the reply message scales with n."""
    return b"\x5a" * n


def _sweep(result_path: str) -> dict[int, float]:
    runtime = Runtime(DmaCommBackend(result_path=result_path, msg_size=64 * 1024))
    sim = runtime.backend.sim
    out = {}
    for size in RESULT_SIZES:
        stats = measure_sim(
            lambda s=size: runtime.sync(1, f2f(produce_payload, s)),
            sim, reps=REPS, warmup=3,
        )
        out[size] = stats.mean
    runtime.shutdown()
    return out


@pytest.fixture(scope="module")
def result_path(report):
    data = {"shm": _sweep("shm"), "udma": _sweep("udma")}
    rows = [
        {
            "result size": format_size(size),
            "SHM result path": format_time(data["shm"][size]),
            "user-DMA result path": format_time(data["udma"][size]),
            "winner": "SHM" if data["shm"][size] < data["udma"][size] else "user DMA",
        }
        for size in RESULT_SIZES
    ]
    report("ablation_result_path", render_table(
        rows, title="A3 — offload cost by result-message return path"
    ))
    return data


class TestResultPathAblation:
    def test_shm_wins_for_small_results(self, result_path):
        # The protocol's typical result (tens of bytes) favours SHM —
        # the design choice the paper made.
        assert result_path["shm"][8] < result_path["udma"][8]
        assert result_path["shm"][64] < result_path["udma"][64]

    def test_udma_wins_for_large_results(self, result_path):
        assert result_path["udma"][16384] < result_path["shm"][16384]

    def test_crossover_below_4kib(self, result_path):
        # SHM's sustained word rate (0.06 GiB/s) loses quickly once the
        # store queue saturates; the crossover must appear in the sweep.
        winners = [
            "shm" if result_path["shm"][s] < result_path["udma"][s] else "udma"
            for s in RESULT_SIZES
        ]
        assert winners[0] == "shm"
        assert winners[-1] == "udma"
        assert "udma" in winners[: RESULT_SIZES.index(4096) + 1]
