"""Tests for the distributed trace context (W3C-traceparent style)."""

import asyncio

import pytest

from repro.telemetry import context as trace_context
from repro.telemetry.context import FLAG_SAMPLED, TraceContext


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

    def test_flags_reflect_sampled(self):
        assert TraceContext(trace_id=1).flags == FLAG_SAMPLED
        assert TraceContext(trace_id=1, sampled=False).flags == 0

    def test_child_reparents_same_identity(self):
        ctx = TraceContext(trace_id=0xABC, span_id=1)
        child = ctx.child(99)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == 99
        assert child.sampled == ctx.sampled

    def test_traceparent_round_trip(self):
        ctx = TraceContext(trace_id=0xDEADBEEF, span_id=0x1234, sampled=True)
        text = ctx.to_traceparent()
        assert text == f"00-{0xDEADBEEF:032x}-{0x1234:016x}-01"
        assert TraceContext.from_traceparent(text) == ctx

    def test_traceparent_unsampled(self):
        ctx = TraceContext(trace_id=5, sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        assert TraceContext.from_traceparent(ctx.to_traceparent()).sampled is False

    @pytest.mark.parametrize("bad", [
        "", "00-abc", "zz-" + "0" * 32 + "-" + "0" * 16 + "-01",
        "00-" + "0" * 32 + "-" + "0" * 16 + "-01",  # zero trace id
        "00-" + "1" * 31 + "-" + "0" * 16 + "-01",  # short trace field
    ])
    def test_traceparent_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            TraceContext.from_traceparent(bad)


class TestActivation:
    def test_default_is_no_context(self):
        assert trace_context.current() is None
        assert trace_context.current_trace_id_hex() == ""

    def test_activate_installs_and_restores(self):
        ctx = TraceContext(trace_id=7)
        with trace_context.activate(ctx) as active:
            assert active is ctx
            assert trace_context.current() is ctx
            assert trace_context.current_trace_id_hex() == ctx.trace_id_hex
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

    def test_unsampled_context_hides_trace_id(self):
        with trace_context.activate(TraceContext(trace_id=3, sampled=False)):
            assert trace_context.current() is not None
            assert trace_context.current_trace_id_hex() == ""

    def test_new_trace_is_random_and_valid(self):
        a, b = trace_context.new_trace(), trace_context.new_trace()
        assert a.trace_id != b.trace_id
        assert a.span_id == 0
        assert a.sampled is True


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
