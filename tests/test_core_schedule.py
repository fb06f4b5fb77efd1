"""Tests for the iteration schedule builder."""


from repro.core.design_points import dc_dla, dc_dla_oracle, mc_dla_bw
from repro.core.optable import schedule_ops
from repro.core.schedule import build_iteration_ops, plan_iteration
from repro.core.timeline import EngineKind
from repro.dnn.registry import build_network
from repro.training.parallel import ParallelStrategy


def ops_by_prefix(ops, prefix):
    return [op for op in ops.ops if op.tag.startswith(prefix)]


class TestIterationPlan:
    def test_traffic_accounting(self):
        net = build_network("AlexNet")
        plan = plan_iteration(net, dc_dla(), 64, ParallelStrategy.DATA)
        assert plan.offload_bytes_per_device \
            == net.virtualized_bytes(64)
        assert plan.round_trip_bytes_per_device \
            == 2 * plan.offload_bytes_per_device

    def test_oracle_plan_migrates_nothing(self):
        net = build_network("AlexNet")
        plan = plan_iteration(net, dc_dla_oracle(), 64,
                              ParallelStrategy.DATA)
        assert plan.offload_bytes_per_device == 0

    def test_sync_accounting_matches_partition(self):
        net = build_network("VGG-E")
        plan = plan_iteration(net, dc_dla(), 512, ParallelStrategy.DATA)
        assert plan.sync_bytes_per_iteration == net.weight_bytes()


class TestOpConstruction:
    def test_one_fwd_and_bwd_op_per_layer(self):
        net = build_network("AlexNet")
        plan = plan_iteration(net, dc_dla(), 64, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, dc_dla())
        non_input = len(net) - 1
        assert len(ops_by_prefix(ops, "fwd:")) == non_input
        assert len(ops_by_prefix(ops, "bwd:")) == non_input

    def test_offload_prefetch_pairing(self):
        net = build_network("AlexNet")
        config = dc_dla()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        offloads = {op.tag.split(":")[1]
                    for op in ops_by_prefix(ops, "offload:")}
        prefetches = {op.tag.split(":")[1]
                      for op in ops_by_prefix(ops, "prefetch:")}
        assert offloads == prefetches
        # Byte conservation: offloaded == prefetched, exactly once each.
        out_bytes = sum(op.nbytes
                        for op in ops_by_prefix(ops, "offload:"))
        in_bytes = sum(op.nbytes
                       for op in ops_by_prefix(ops, "prefetch:"))
        assert out_bytes == in_bytes == plan.offload_bytes_per_device

    def test_prefetch_depends_on_its_offload(self):
        net = build_network("AlexNet")
        config = dc_dla()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        offload_uid = {op.tag.split(":")[1]: op.uid
                       for op in ops_by_prefix(ops, "offload:")}
        for op in ops_by_prefix(ops, "prefetch:"):
            tensor = op.tag.split(":")[1]
            assert offload_uid[tensor] in op.deps

    def test_recompute_ops_for_cheap_layers(self):
        net = build_network("AlexNet")
        config = dc_dla()
        plan = plan_iteration(net, config, 64, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        recomputed = {op.tag.split(":")[1]
                      for op in ops_by_prefix(ops, "recompute:")}
        assert "relu1" in recomputed and "pool1" in recomputed
        assert "conv1" not in recomputed

    def test_dp_sync_ops_only_backward(self):
        net = build_network("VGG-E")
        config = dc_dla()
        plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        assert not ops_by_prefix(ops, "sync-fwd:")
        assert len(ops_by_prefix(ops, "sync-bwd:")) == 19

    def test_mp_sync_ops_both_directions(self):
        net = build_network("AlexNet")
        config = dc_dla()
        plan = plan_iteration(net, config, 512, ParallelStrategy.MODEL)
        ops = build_iteration_ops(plan, config)
        assert len(ops_by_prefix(ops, "sync-fwd:")) > 0
        assert len(ops_by_prefix(ops, "sync-bwd:")) > 0

    def test_oracle_emits_no_dma_ops(self):
        net = build_network("VGG-E")
        config = dc_dla_oracle()
        plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
        ops = build_iteration_ops(plan, config)
        assert not ops_by_prefix(ops, "offload:")
        assert not ops_by_prefix(ops, "prefetch:")
        assert not ops_by_prefix(ops, "recompute:")


class TestScheduleSemantics:
    def test_offload_window_backpressure(self):
        """A slow channel with a full pinned-buffer window stalls
        forward compute: makespan grows beyond pure compute."""
        net = build_network("VGG-E")
        slow = dc_dla()
        fast = mc_dla_bw()
        plan_slow = plan_iteration(net, slow, 512, ParallelStrategy.DATA)
        plan_fast = plan_iteration(net, fast, 512, ParallelStrategy.DATA)
        t_slow = schedule_ops(build_iteration_ops(plan_slow, slow))
        t_fast = schedule_ops(build_iteration_ops(plan_fast, fast))
        assert t_slow.makespan > 2 * t_fast.makespan

    def test_makespan_at_least_compute(self):
        net = build_network("ResNet")
        for config in (dc_dla(), mc_dla_bw(), dc_dla_oracle()):
            plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
            result = schedule_ops(build_iteration_ops(plan, config))
            assert result.makespan \
                >= result.busy_time(EngineKind.COMPUTE) - 1e-9

    def test_rnn_chain_schedules(self):
        net = build_network("RNN-LSTM-1")
        config = mc_dla_bw()
        plan = plan_iteration(net, config, 512, ParallelStrategy.MODEL)
        result = schedule_ops(build_iteration_ops(plan, config))
        assert result.makespan > 0
