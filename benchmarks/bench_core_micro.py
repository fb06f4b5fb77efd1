"""Microbenchmarks of the simulator's hot paths.

These time the substrate primitives themselves (GEMM timing, ring
collectives, schedule construction, full iteration simulation) so
regressions in the simulator's own performance are visible.

Simulation-level benchmarks come in *cold* and *warm* variants.  The
core memoizes pricing process-wide
(:mod:`repro.core.pricing`), so a naive ``benchmark(simulate, ...)``
times cache replay from its second round on.  Cold variants clear
every pricing memo in the round's setup hook and measure real
simulation work; warm variants deliberately keep the memos hot and
measure the cached steady state the campaign engine actually runs at.
"""

from repro.accelerator.device import BASELINE_DEVICE
from repro.collectives.ring_algorithm import all_reduce_time
from repro.core import pricing
from repro.core.design_points import dc_dla, mc_dla_bw
from repro.core.optable import schedule_ops
from repro.core.schedule import build_iteration_ops, plan_iteration
from repro.core.simulator import simulate
from repro.dnn.registry import build_network
from repro.dnn.shapes import Gemm
from repro.training.parallel import ParallelStrategy
from repro.units import GBPS, MB


def _cold(benchmark, fn):
    """Best-of-N with every pricing memo emptied before each round."""
    return benchmark.pedantic(fn, setup=pricing.clear_caches,
                              rounds=5, iterations=1)


def test_bench_gemm_timing(benchmark):
    gemm = Gemm(512 * 196, 512, 1152)
    time = benchmark(BASELINE_DEVICE.pe_array.gemm_time, gemm,
                     BASELINE_DEVICE.hbm)
    assert time > 0


def test_bench_ring_allreduce_model(benchmark):
    latency = benchmark(all_reduce_time, 16, 8 * MB, 50 * GBPS)
    assert latency > 0


def test_bench_schedule_construction_cold(benchmark):
    net = build_network("GoogLeNet")
    config = mc_dla_bw()

    def build():
        plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
        return build_iteration_ops(plan, config)

    ops = _cold(benchmark, build)
    assert len(ops) > 200


def test_bench_schedule_construction_warm(benchmark):
    net = build_network("GoogLeNet")
    config = mc_dla_bw()

    def build():
        plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
        return build_iteration_ops(plan, config)

    build()  # prewarm the pricing memos
    ops = benchmark(build)
    assert len(ops) > 200


def test_bench_timeline_scheduler(benchmark):
    """The list scheduler alone (pure, no caches)."""
    net = build_network("RNN-GRU")
    config = dc_dla()
    plan = plan_iteration(net, config, 512, ParallelStrategy.DATA)
    ops = build_iteration_ops(plan, config)
    result = benchmark(schedule_ops, ops)
    assert result.makespan > 0


def test_bench_full_simulation_cold(benchmark):
    config = mc_dla_bw()
    result = _cold(benchmark, lambda: simulate(
        config, "VGG-E", 512, ParallelStrategy.DATA))
    assert result.iteration_time > 0


def test_bench_full_simulation_warm(benchmark):
    config = mc_dla_bw()
    simulate(config, "VGG-E", 512, ParallelStrategy.DATA)  # prewarm
    result = benchmark(simulate, config, "VGG-E", 512,
                       ParallelStrategy.DATA)
    assert result.iteration_time > 0
