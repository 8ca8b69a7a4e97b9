"""Tests for the distributed trace context."""

import asyncio
import os
import pathlib
import random

import pytest

import repro
from repro.backends import LocalBackend
from repro.ham import f2f
from repro.offload import api as offload_api
from repro.telemetry import context as trace_context
from repro.telemetry import recorder as telemetry
from repro.telemetry.context import FLAG_SAMPLED, TraceContext

from tests import apps


class TestTraceContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceContext(trace_id=0)
        with pytest.raises(ValueError):
            TraceContext(trace_id=1 << 128)
        with pytest.raises(ValueError):
            TraceContext(trace_id=1, span_id=1 << 64)
        with pytest.raises(ValueError):
            TraceContext(trace_id=1, span_id=-1)

    def test_equal_and_hashable_by_value(self):
        a = TraceContext(trace_id=7, span_id=3)
        b = TraceContext(trace_id=7, span_id=3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TraceContext(trace_id=7, span_id=4)
        assert a != (7, 3)
        assert a.trace_id_hex == f"{7:032x}"

    def test_flags_reflect_sampled(self):
        # Every trace is recorded: bit 0 is set on every context.
        assert TraceContext(trace_id=1).flags == FLAG_SAMPLED
        assert TraceContext(trace_id=1).child(5).flags == FLAG_SAMPLED

    def test_child_reparents_same_identity(self):
        ctx = TraceContext(trace_id=0xABC, span_id=1)
        child = ctx.child(99)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == 99


class TestActivation:
    def test_default_is_no_context(self):
        assert trace_context.current() is None

    def test_activate_installs_and_restores(self):
        ctx = TraceContext(trace_id=7)
        with trace_context.activate(ctx) as active:
            assert active is ctx
            assert trace_context.current() is ctx
        assert trace_context.current() is None

    def test_activate_none_is_passthrough(self):
        outer = TraceContext(trace_id=9)
        with trace_context.activate(outer):
            with trace_context.activate(None):
                assert trace_context.current() is outer

    def test_nesting_restores_outer(self):
        outer, inner = TraceContext(trace_id=1), TraceContext(trace_id=2)
        with trace_context.activate(outer):
            with trace_context.activate(inner):
                assert trace_context.current() is inner
            assert trace_context.current() is outer

    def test_new_trace_is_random_and_valid(self):
        a, b = trace_context.new_trace(), trace_context.new_trace()
        assert a.trace_id != b.trace_id
        assert a.span_id == 0


class TestActivationScoping:
    """``activate`` is a plain context manager, not a generator: the
    contextvar set/reset semantics it must keep."""

    def test_restored_when_the_block_raises(self):
        outer, inner = TraceContext(trace_id=1), TraceContext(trace_id=2)
        with trace_context.activate(outer):
            with pytest.raises(RuntimeError, match="boom"):
                with trace_context.activate(inner):
                    assert trace_context.current() is inner
                    raise RuntimeError("boom")
            assert trace_context.current() is outer
        assert trace_context.current() is None

    def test_three_deep_unwinds_in_order(self):
        a, b, c = (TraceContext(trace_id=i) for i in (1, 2, 3))
        with trace_context.activate(a):
            with trace_context.activate(b):
                with trace_context.activate(c):
                    assert trace_context.current() is c
                assert trace_context.current() is b
            assert trace_context.current() is a
        assert trace_context.current() is None

    def test_none_inside_none_inside_active_stays_visible(self):
        outer = TraceContext(trace_id=9)
        with trace_context.activate(outer):
            with trace_context.activate(None) as first:
                with trace_context.activate(None) as second:
                    assert first is None and second is None
                    assert trace_context.current() is outer
            assert trace_context.current() is outer

    def test_none_passthrough_does_not_swallow_exceptions(self):
        with pytest.raises(KeyError):
            with trace_context.activate(None):
                raise KeyError("k")

    def test_activation_is_per_asyncio_task(self):
        contexts = {n: TraceContext(trace_id=n) for n in (1, 2, 3)}
        seen = {}

        async def worker(n):
            with trace_context.activate(contexts[n]):
                await asyncio.sleep(0)  # let the other tasks run inside theirs
                seen[n] = trace_context.current()
                await asyncio.sleep(0)
            return trace_context.current()

        async def main():
            after = await asyncio.gather(*(worker(n) for n in contexts))
            return after, trace_context.current()

        after, outside = asyncio.run(main())
        assert seen == contexts
        assert after == [None, None, None]
        assert outside is None


def _offload_trace_id() -> str:
    """The trace id one traced offload of a fresh ``init`` recorded."""
    offload_api.init(LocalBackend(), telemetry=True)
    try:
        assert offload_api.sync(1, f2f(apps.add, 1, 2)) == 3
        (trace_id,) = {record.trace_id for record in telemetry.get().records()}
        return trace_id
    finally:
        offload_api.finalize()
        telemetry.disable()


class TestTraceIds:
    """Trace ids come from a generator of the context module's own."""

    def test_seeding_the_global_random_repeats_no_trace_id(self):
        random.seed(0)
        first = _offload_trace_id()
        random.seed(0)
        second = _offload_trace_id()
        assert first and second and first != second

    def test_a_forked_child_mints_ids_of_its_own(self):
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            status = 1
            try:
                ids = [trace_context.new_trace_id() for _ in range(8)]
                os.write(write_fd, ",".join(map(str, ids)).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            in_child = [int(i) for i in pipe.read().split(",")]
        assert os.waitpid(child, 0)[1] == 0
        in_parent = [trace_context.new_trace_id() for _ in range(8)]
        assert len(set(in_child) | set(in_parent)) == 16
        assert all(0 < i < 1 << 128 for i in in_child + in_parent)


#: What removed mechanisms left in the source: trace sampling (telemetry
#: is on or off) and the in-process time-series store with its per-target
#: series and anomaly detector. Matched case-insensitively.
REMOVED_NAMES = ("HeadSampler", "TailPipeline", ".sampled", "peek_trace_flags",
                 "trace.tail_", "tsdb", "Scoreboard", "AnomalyDetector",
                 "anomal", "target.reply.")


def removed_mentions(src: pathlib.Path) -> list[str]:
    """``path:line: name`` for every mention of a removed name under ``src``."""
    return [f"{path.relative_to(src)}:{number}: {name}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(path.read_text().lower().splitlines(), 1)
            for name in REMOVED_NAMES if name.lower() in line]


def test_no_module_mentions_a_removed_mechanism():
    assert removed_mentions(pathlib.Path(repro.__file__).parent) == []
