"""The consumer index: built once per topology, dropped with it.

:class:`~repro.core.optable.ConsumerIndex` holds what the scheduler and
the prefetch-stats collector re-derived per cell -- slot predecessors,
stall candidates, per-channel groups, dependency tuples.  These tests
pin its lifecycle (one index per topology, shared by every cell priced
from it, gone after ``pricing.clear_caches()``, missed after a
network mutation), its immutability, and the FIFO slot-predecessor
invariant the scheduler relies on, for tables priced from a topology
and for tables built op by op.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pricing
from repro.core.design_points import design_point
from repro.core.metrics import ExecutionMode
from repro.core.optable import (CODE_ENGINE, ConsumerIndex, OpTable,
                                build_consumer_index, schedule_ops)
from repro.core.schedule import (build_inference_ops, build_iteration_ops,
                                 plan_inference, plan_iteration)
from repro.core.simulator import _lower
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network, input_layer
from repro.dnn.layers import Layer, LayerKind
from repro.dnn.registry import build_network
from repro.dnn.shapes import fc_gemm
from repro.training.parallel import ParallelStrategy

ARRAYS = tuple(field.name for field in dataclasses.fields(ConsumerIndex)
               if field.name not in ("deps", "slots", "channel_groups"))


def training_table(net, batch: int, design: str = "MC-DLA(B)",
                   strategy=ParallelStrategy.DATA) -> OpTable:
    config = design_point(design)
    return build_iteration_ops(plan_iteration(net, config, batch,
                                              strategy), config)


def replayed_prev_slot_finish(timeline) -> list[float]:
    """What each op's (engine, channel) slot held when it was issued,
    replayed with a slot dict in uid order."""
    table, free, out = timeline.table, {}, []
    for uid, slot in enumerate(zip(table.codes, table.channels)):
        out.append(free.get(slot, 0.0))
        free[slot] = timeline.finish[uid]
    return out


class TestLifecycle:
    def test_cells_of_one_topology_share_one_index(self):
        pricing.clear_caches()
        net = build_network("VGG-E")
        small, large = training_table(net, 256), training_table(net, 1024)
        assert small.topology is large.topology is not None
        assert small.consumer_index() is large.consumer_index()
        # The dependency tuples are the index's, not per-cell copies.
        assert all(a is b for a, b in zip(small.deps, large.deps))
        assert small.deps is not large.deps

    def test_timelines_carry_the_shared_index(self):
        pricing.clear_caches()
        config = design_point("DC-DLA")
        timelines = [_lower(config, "AlexNet", batch,
                            ParallelStrategy.MODEL,
                            ExecutionMode.TRAINING)[1]
                     for batch in (128, 512)]
        assert timelines[0].index is timelines[1].index

    def test_clear_caches_drops_the_index(self):
        pricing.clear_caches()
        net = build_network("AlexNet")
        before = training_table(net, 256).consumer_index()
        pricing.clear_caches()
        after = training_table(net, 256).consumer_index()
        assert after is not before
        assert after.deps == before.deps
        for name in ARRAYS:
            assert np.array_equal(getattr(after, name),
                                  getattr(before, name)), name

    @pytest.mark.parametrize("inference", [False, True])
    def test_mutated_network_misses(self, inference):
        net = Network("index-test")
        net.add_layer(input_layer("in", 64))
        for i, prev in enumerate(("in", "fc0", "fc1")):
            net.add_layer(Layer(name=f"fc{i}", kind=LayerKind.FC,
                                out_elems=64, weight_elems=64 * 64,
                                gemms=(fc_gemm(64, 64),)), inputs=[prev])
        net.validate()
        config = design_point("DC-DLA")

        def emit() -> OpTable:
            if inference:
                return build_inference_ops(
                    plan_inference(net, config, 32,
                                   ParallelStrategy.DATA), config)
            return training_table(net, 32, "DC-DLA",
                                  ParallelStrategy.MODEL)

        before = emit().consumer_index()
        assert emit().consumer_index() is before
        net.add_layer(Layer(name="act", kind=LayerKind.ACT, out_elems=64,
                            stream_elems=64), inputs=["fc2"])
        after = emit().consumer_index()
        assert after is not before
        assert len(after.deps) > len(before.deps)

    def test_tables_built_op_by_op_index_their_own_columns(self):
        table = OpTable()
        table.add(EngineKind.COMPUTE, 1.0, [], "a")
        first = table.consumer_index()
        assert table.consumer_index() is not first
        table.add(EngineKind.DMA_IN, 1.0, [0], "b")
        assert len(table.consumer_index().deps) == 2

    def test_appending_to_a_priced_table_detaches_it(self):
        pricing.clear_caches()
        table = training_table(build_network("AlexNet"), 128)
        n = len(table)
        table.add(EngineKind.COMPUTE, 1.0, [n - 1], "extra")
        assert table.topology is None
        assert len(table.consumer_index().deps) == n + 1


class TestContents:
    def test_arrays_are_read_only(self):
        pricing.clear_caches()
        index = training_table(build_network("GoogLeNet"),
                               256).consumer_index()
        arrays = [getattr(index, name) for name in ARRAYS]
        arrays += [a for group in index.channel_groups for a in group]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_topology_index_equals_one_built_from_the_table(self):
        pricing.clear_caches()
        table = training_table(build_network("ResNet"), 256,
                               "DC-DLA")
        cached = table.consumer_index()
        fresh = build_consumer_index(table.codes, table.deps, table.tags,
                                     table.channels)
        assert fresh.deps == cached.deps
        assert fresh.slots == cached.slots
        for name in ARRAYS:
            assert np.array_equal(getattr(fresh, name),
                                  getattr(cached, name)), name
        assert len(fresh.channel_groups) == len(cached.channel_groups)
        for (d1, c1), (d2, c2) in zip(fresh.channel_groups,
                                      cached.channel_groups):
            assert np.array_equal(d1, d2) and np.array_equal(c1, c2)

    @pytest.mark.parametrize("design", ["DC-DLA", "MC-DLA(B)"])
    @pytest.mark.parametrize("strategy", [ParallelStrategy.DATA,
                                          ParallelStrategy.MODEL,
                                          ParallelStrategy.PIPELINE])
    def test_slot_predecessors_reproduce_prev_slot_finish(self, design,
                                                          strategy):
        config = dataclasses.replace(design_point(design),
                                     pipeline_stages=4)
        _, timeline = _lower(config, "GoogLeNet", 128, strategy,
                             ExecutionMode.TRAINING)
        assert (timeline.table.topology is None) \
            == (strategy is ParallelStrategy.PIPELINE)
        assert timeline.prev_slot_finish == \
            replayed_prev_slot_finish(timeline)


@st.composite
def op_programs(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    program = []
    for uid in range(n):
        program.append((
            draw(st.sampled_from(tuple(EngineKind))),
            draw(st.sampled_from((0.0, 0.5, 1.0, 2.5))),
            draw(st.lists(st.integers(0, uid - 1), max_size=3,
                          unique=True)) if uid else [],
            draw(st.integers(min_value=0, max_value=3))))
    return program


@given(op_programs())
@settings(max_examples=100, deadline=None)
def test_slot_predecessor_is_the_previous_op_on_the_slot(program):
    table = OpTable()
    for uid, (engine, duration, deps, channel) in enumerate(program):
        table.add(engine, duration, deps, f"op{uid}", channel=channel)
    timeline = schedule_ops(table)
    index = timeline.index
    last: dict = {}
    for uid, slot in enumerate(zip(table.codes, table.channels)):
        assert index.slot_pred[uid] == last.get(slot, -1)
        assert index.slots[index.slot_of[uid]] == slot
        last[slot] = uid
    assert timeline.prev_slot_finish == replayed_prev_slot_finish(timeline)
    # Slots run engine by engine, channels in first-appearance order.
    assert list(timeline.busy_per_channel) == [
        (CODE_ENGINE[code], channel) for code, channel in index.slots]
    assert index.slots == tuple(sorted(
        dict.fromkeys(zip(table.codes, table.channels)),
        key=lambda slot: slot[0]))
