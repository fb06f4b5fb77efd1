"""Tests for the engine-level timeline scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.optable import OpTable, schedule_ops
from repro.core.timeline import EngineKind, Op


def oplist(specs):
    """specs: list of (engine, duration, deps)."""
    ops = OpTable()
    for engine, duration, deps in specs:
        ops.add(engine, duration, deps, tag=f"op{len(ops)}")
    return ops


class TestOpValidation:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Op(0, EngineKind.COMPUTE, -1.0, (), "x")

    def test_rejects_forward_dependency(self):
        with pytest.raises(ValueError):
            Op(0, EngineKind.COMPUTE, 1.0, (1,), "x")

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            Op(0, EngineKind.DMA_IN, 1.0, (), "x", nbytes=-1)


class TestScheduling:
    def test_engine_serializes(self):
        ops = oplist([(EngineKind.COMPUTE, 1.0, []),
                      (EngineKind.COMPUTE, 2.0, [])])
        result = schedule_ops(ops)
        assert result.scheduled[1].start == pytest.approx(1.0)
        assert result.makespan == pytest.approx(3.0)

    def test_different_engines_overlap(self):
        ops = oplist([(EngineKind.COMPUTE, 2.0, []),
                      (EngineKind.DMA_OUT, 2.0, [])])
        result = schedule_ops(ops)
        assert result.makespan == pytest.approx(2.0)

    def test_dependencies_respected(self):
        ops = oplist([(EngineKind.COMPUTE, 1.0, []),
                      (EngineKind.DMA_OUT, 0.5, [0]),
                      (EngineKind.COMPUTE, 1.0, [1])])
        result = schedule_ops(ops)
        assert result.scheduled[1].start == pytest.approx(1.0)
        assert result.scheduled[2].start == pytest.approx(1.5)

    def test_busy_totals(self):
        ops = oplist([(EngineKind.COMPUTE, 1.0, []),
                      (EngineKind.COMPUTE, 2.5, []),
                      (EngineKind.COMM, 4.0, [])])
        result = schedule_ops(ops)
        assert result.busy_time(EngineKind.COMPUTE) == pytest.approx(3.5)
        assert result.busy_time(EngineKind.COMM) == pytest.approx(4.0)
        assert result.busy_time(EngineKind.DMA_IN) == 0.0

    def test_empty_oplist(self):
        result = schedule_ops(OpTable())
        assert result.makespan == 0.0

    def test_zero_duration_ops(self):
        ops = oplist([(EngineKind.COMPUTE, 0.0, []),
                      (EngineKind.COMPUTE, 0.0, [0])])
        assert schedule_ops(ops).makespan == 0.0

    def test_ops_on_engine_filter(self):
        ops = oplist([(EngineKind.COMPUTE, 1.0, []),
                      (EngineKind.COMM, 1.0, [])])
        result = schedule_ops(ops)
        assert len(result.ops_on(EngineKind.COMPUTE)) == 1


class TestChannels:
    def test_same_engine_different_channels_overlap(self):
        ops = OpTable()
        ops.add(EngineKind.COMPUTE, 2.0, [], tag="a", channel=0)
        ops.add(EngineKind.COMPUTE, 2.0, [], tag="b", channel=1)
        result = schedule_ops(ops)
        assert result.scheduled[1].start == 0.0
        assert result.makespan == pytest.approx(2.0)
        assert result.channels == (0, 1)

    def test_same_channel_serializes(self):
        ops = OpTable()
        ops.add(EngineKind.COMPUTE, 2.0, [], tag="a", channel=1)
        ops.add(EngineKind.COMPUTE, 2.0, [], tag="b", channel=1)
        result = schedule_ops(ops)
        assert result.scheduled[1].start == pytest.approx(2.0)

    def test_busy_aggregates_and_splits(self):
        ops = OpTable()
        ops.add(EngineKind.COMPUTE, 1.0, [], tag="a", channel=0)
        ops.add(EngineKind.COMPUTE, 3.0, [], tag="b", channel=2)
        result = schedule_ops(ops)
        assert result.busy_time(EngineKind.COMPUTE) == pytest.approx(4.0)
        assert result.busy_time(EngineKind.COMPUTE, 0) \
            == pytest.approx(1.0)
        assert result.busy_time(EngineKind.COMPUTE, 2) \
            == pytest.approx(3.0)
        assert result.busy_time(EngineKind.COMPUTE, 1) == 0.0
        assert result.ops_on(EngineKind.COMPUTE, 2)[0].op.tag == "b"

    def test_cross_channel_dependencies(self):
        ops = OpTable()
        first = ops.add(EngineKind.COMPUTE, 2.0, [], tag="a", channel=0)
        ops.add(EngineKind.COMPUTE, 1.0, [first], tag="b", channel=1)
        result = schedule_ops(ops)
        assert result.scheduled[1].start == pytest.approx(2.0)

    def test_rejects_negative_channel(self):
        with pytest.raises(ValueError):
            Op(0, EngineKind.COMPUTE, 1.0, (), "x", channel=-1)

    def test_default_channel_is_spmd(self):
        ops = oplist([(EngineKind.COMPUTE, 1.0, [])])
        result = schedule_ops(ops)
        assert result.channels == (0,)
        assert result.busy_per_channel[(EngineKind.COMPUTE, 0)] \
            == pytest.approx(1.0)


class TestInvariants:
    @given(st.lists(st.tuples(
        st.sampled_from(list(EngineKind)),
        st.floats(min_value=0.0, max_value=10.0),
        st.booleans()), min_size=1, max_size=40))
    def test_schedule_is_consistent(self, raw):
        ops = OpTable()
        for engine, duration, dep_on_prev in raw:
            deps = [len(ops) - 1] if dep_on_prev and len(ops) else []
            ops.add(engine, duration, deps, tag="t")
        result = schedule_ops(ops)

        finish = [s.finish for s in result.scheduled]
        last_on_engine: dict[EngineKind, float] = {}
        for s in result.scheduled:
            # Dependencies finish before the op starts.
            for d in s.op.deps:
                assert finish[d] <= s.start + 1e-12
            # Engines never run two ops at once.
            if s.op.engine in last_on_engine:
                assert last_on_engine[s.op.engine] <= s.start + 1e-12
            last_on_engine[s.op.engine] = s.finish
            assert s.finish == pytest.approx(s.start + s.op.duration)

        # Makespan bounds: at least the busiest engine, at most the sum.
        total = sum(s.op.duration for s in result.scheduled)
        busiest = max(result.busy.values())
        assert busiest - 1e-9 <= result.makespan <= total + 1e-9
