"""Experiment A4 (ablation) — message slots and asynchronous streaming.

Paper Sec. III-D: each direction has "a set of message buffers and
corresponding notification flags", sized by the implementation. This
ablation asks what that set buys:

* **async streaming vs sync loops** — posting offloads asynchronously
  overlaps the host's bookkeeping (result deserialization, next message
  serialization) with the VE's protocol work, ~1.3× throughput on empty
  kernels;
* **slot count** — with a single-threaded VE message loop, messages
  execute strictly in order, so throughput is *independent* of the slot
  count; extra slots are flow control (how many asyncs may be
  outstanding before the host must drain), not a performance knob.

Both findings are asserted below.
"""

import pytest

from repro.backends import DmaCommBackend
from repro.bench.tables import render_table
from repro.ham import f2f, offloadable
from repro.offload import Runtime

STREAM = 40
SLOTS = [1, 2, 4, 8]


@offloadable
def slot_kernel(tag: int) -> int:
    """Empty kernel body (protocol-bound regime)."""
    return tag


def _throughput(num_slots: int, *, mode: str) -> float:
    backend = DmaCommBackend(num_slots=num_slots)
    runtime = Runtime(backend)
    sim = backend.sim
    runtime.sync(1, f2f(slot_kernel, 0))  # warm-up
    start = sim.now
    if mode == "async":
        futures = [runtime.async_(1, f2f(slot_kernel, i)) for i in range(STREAM)]
        results = [future.get() for future in futures]
    else:
        results = [runtime.sync(1, f2f(slot_kernel, i)) for i in range(STREAM)]
    elapsed = sim.now - start
    runtime.shutdown()
    assert results == list(range(STREAM))
    return STREAM / elapsed


@pytest.fixture(scope="module")
def slots(report):
    data = {
        "sync": _throughput(8, mode="sync"),
        "async": {n: _throughput(n, mode="async") for n in SLOTS},
    }
    rows = [{
        "configuration": "sync loop (8 slots)",
        "offloads/s": f"{data['sync']:,.0f}",
        "vs sync": "1.00x",
    }]
    rows += [
        {
            "configuration": f"async stream, {n} slot(s)",
            "offloads/s": f"{data['async'][n]:,.0f}",
            "vs sync": f"{data['async'][n] / data['sync']:.2f}x",
        }
        for n in SLOTS
    ]
    text = render_table(
        rows,
        title="A4 — empty-kernel offload throughput: streaming and slot count",
    )
    text += (
        "\n\nfinding: slots are flow control, not bandwidth — one VE executes "
        "messages in order, so throughput is slot-independent; asynchrony "
        "itself buys the overlap."
    )
    report("ablation_slots", text)
    return data


class TestSlotAblation:
    def test_async_streaming_beats_sync_loop(self, slots):
        assert slots["async"][8] > slots["sync"] * 1.15

    def test_throughput_independent_of_slot_count(self, slots):
        values = [slots["async"][n] for n in SLOTS]
        assert max(values) / min(values) < 1.05

    def test_flow_control_with_one_slot_still_correct(self, slots):
        # Covered inside _throughput's result check: 40 asyncs through a
        # single slot produce all results exactly once, in order.
        assert slots["async"][1] > 0
