"""Core contribution: system design points and the training simulator."""

from repro.core.design_points import (DESIGN_ORDER, all_design_points,
                                      dc_dla, dc_dla_oracle, design_point,
                                      hc_dla, mc_dla_bw, mc_dla_local,
                                      mc_dla_star, single_device,
                                      single_device_oracle)
from repro.core.metrics import (LatencyBreakdown, PipelineStats,
                                SimulationResult)
from repro.core.schedule import (IterationPlan, build_iteration_ops,
                                 plan_iteration)
from repro.core.simulator import (DEFAULT_BATCH, host_bandwidth_usage,
                                  iteration_timeline, simulate)
from repro.core.system import CollectiveModel, SystemConfig, VmemModel
from repro.core.optable import ColumnarTimeline, OpTable, schedule_ops
from repro.core.timeline import EngineKind, Op, ScheduledOp

__all__ = [
    "CollectiveModel", "ColumnarTimeline", "DEFAULT_BATCH", "DESIGN_ORDER",
    "EngineKind", "IterationPlan", "LatencyBreakdown", "Op", "OpTable",
    "PipelineStats", "ScheduledOp", "SimulationResult", "SystemConfig",
    "VmemModel", "all_design_points", "build_iteration_ops", "dc_dla",
    "dc_dla_oracle", "design_point", "hc_dla", "host_bandwidth_usage",
    "iteration_timeline", "mc_dla_bw", "mc_dla_local", "mc_dla_star",
    "plan_iteration", "schedule_ops", "simulate", "single_device",
    "single_device_oracle",
]
