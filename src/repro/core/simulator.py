"""Top-level system simulator (paper Section IV's methodology).

``simulate(config, network, batch, strategy)`` runs one training
iteration of a benchmark on a design point and returns a
:class:`~repro.core.metrics.SimulationResult` carrying the iteration
time, the Figure 11 latency breakdown, and the traffic accounting that
feeds Figure 12.  Every mode -- training, inference, pipeline, and
the fault-degraded leg of each -- goes through one driver that plans,
prices, emits and schedules the iteration once; ``iteration_timeline``
returns the timeline that same run scheduled.
"""

from __future__ import annotations

from repro.core import pricing
from repro.core.metrics import (ExecutionMode, LatencyBreakdown,
                                SimulationResult)
from repro.core.optable import ColumnarTimeline, schedule_ops
from repro.core.schedule import (build_inference_ops, build_iteration_ops,
                                 inference_pricer, iteration_pricer,
                                 plan_inference, plan_inference_prefetch,
                                 plan_iteration, plan_training_prefetch)
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network
from repro.dnn.registry import build_network
from repro.faults.lowering import (active_fault_model, degraded_config,
                                   healthy_config, iteration_fault_stats,
                                   record_fault_stats)
from repro.host.cpu import CpuBandwidthUsage, socket_usage
from repro.telemetry.spans import span
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import collect_prefetch_stats

DEFAULT_BATCH = 512


def simulate(config: SystemConfig, network: Network | str,
             batch: int = DEFAULT_BATCH,
             strategy: ParallelStrategy = ParallelStrategy.DATA,
             mode: ExecutionMode = ExecutionMode.TRAINING) \
        -> SimulationResult:
    """Simulate one training iteration (or one forward-only inference
    batch, with ``mode=ExecutionMode.INFERENCE``) on a design point.

    Args:
        config: the design point (hardware + policy knobs).  Factory
            builds come from :func:`repro.core.design_points.design_point`.
        network: a built :class:`~repro.dnn.graph.Network` or a
            registry name (``"VGG-E"``, ``"BERT-Large"``, ...).
        batch: global minibatch size in samples (per-device under data
            parallelism; whole-node under model parallelism).
        strategy: data, model, or pipeline parallelism.
            ``ParallelStrategy.PIPELINE`` routes through
            :mod:`repro.pipeline` and populates ``result.pipeline``.
        mode: ``TRAINING`` (default) or ``INFERENCE``.  Request-level
            serving and multi-job cluster runs have their own entry
            points (:func:`repro.serving.simulate_serving`,
            :func:`repro.cluster.simulate_cluster`).

    Returns:
        A :class:`SimulationResult`.  ``iteration_time`` and every
        breakdown component are seconds; all traffic fields are bytes
        per iteration.  Results are deterministic
        (``tests/golden/core_results.json`` pins them).
    """
    return _lower(config, network, batch, strategy, mode)[0]


def iteration_timeline(config: SystemConfig, network: Network | str,
                       batch: int = DEFAULT_BATCH,
                       strategy: ParallelStrategy =
                       ParallelStrategy.DATA) -> ColumnarTimeline:
    """The engine timeline :func:`simulate` measures for the same
    arguments, fault degradation included (trace export)."""
    return _lower(config, network, batch, strategy,
                  ExecutionMode.TRAINING)[1]


def _lower(config: SystemConfig, network: Network | str, batch: int,
           strategy: ParallelStrategy, mode: ExecutionMode) \
        -> tuple[SimulationResult, ColumnarTimeline]:
    """Plan, price, emit and schedule one iteration, in any mode.

    Only the four phase functions and the plan-specific result fields
    differ between modes.  Phases are looked up when called (this
    module's globals, ``repro.pipeline.lowering``'s attributes), so a
    wrapper installed on either attribute is the one that runs.
    """
    net = (build_network(network) if isinstance(network, str)
           else network)
    fault = active_fault_model(config)
    if fault is not None:
        return _simulate_faulted(fault, config, net, batch, strategy,
                                 mode)
    plan_args = (net, config, batch, strategy)
    if mode is ExecutionMode.INFERENCE:
        label = "inference"
        phases = (plan_inference, inference_pricer,
                  plan_inference_prefetch, build_inference_ops)
    elif mode is not ExecutionMode.TRAINING:
        raise ValueError(f"simulate() cannot run mode {mode}; serving "
                         f"runs through repro.serving")
    elif strategy is ParallelStrategy.PIPELINE:
        # Imported lazily: repro.pipeline depends on repro.core.
        from repro.pipeline import lowering
        label = "pipeline"
        plan_args = (net, config, batch)
        phases = (lowering.plan_pipeline, lowering.pipeline_pricer,
                  lowering.plan_pipeline_prefetch,
                  lowering.build_pipeline_ops)
    else:
        label = "training"
        phases = (plan_iteration, iteration_pricer,
                  plan_training_prefetch, build_iteration_ops)
    plan_fn, pricer_fn, prefetch_fn, emit_fn = phases
    with span("plan", mode=label):
        plan = plan_fn(*plan_args)
    with span("price", mode=label):
        pricer = pricer_fn(plan, config)
        psched = prefetch_fn(plan, config, pricer)
    with span("emit", mode=label):
        ops = emit_fn(plan, config, prefetch=psched, pricer=pricer)
    with span("schedule", mode=label):
        timeline = schedule_ops(ops)

    stats = None
    if label == "inference":
        # Inference streams weights in and pushes nothing back.
        offload = plan.weight_stream_bytes_per_device
        host_traffic = offload
        footprint = pricing.inference_footprint(net, batch)
        evictions = psched.evictions
    elif label == "pipeline":
        offload = plan.offload_bytes_per_device
        host_traffic = 2 * offload
        footprint = plan.max_stage_footprint_bytes
        evictions = sum(s.evictions for s in psched)
    else:
        offload = plan.offload_bytes_per_device
        host_traffic = plan.round_trip_bytes_per_device
        # Weak scaling: every worker trains a full `batch`
        # (data-parallel) or materializes full gathered feature maps
        # (model-parallel), so the per-device footprint is the
        # full-batch footprint either way.
        footprint = pricing.training_footprint(net, batch)
        evictions = psched.evictions
    with span("stats", mode=label):
        if label == "pipeline":
            stats = lowering.pipeline_stats(plan, timeline)
        prefetch = collect_prefetch_stats(timeline, config.prefetch_policy,
                                          evictions=evictions)

    breakdown = LatencyBreakdown(
        compute=timeline.busy_time(EngineKind.COMPUTE),
        sync=timeline.busy_time(EngineKind.COMM),
        vmem=(timeline.busy_time(EngineKind.DMA_OUT)
              + timeline.busy_time(EngineKind.DMA_IN)))
    result = SimulationResult(
        system=config.name,
        network=net.name,
        batch=batch,
        strategy=strategy,
        n_devices=config.n_devices,
        iteration_time=timeline.makespan,
        breakdown=breakdown,
        offload_bytes_per_device=offload,
        sync_bytes=plan.sync_bytes_per_iteration,
        host_traffic_bytes_per_device=(host_traffic
                                       if config.uses_host_memory
                                       else 0),
        fits_in_device_memory=footprint <= config.device.memory_capacity,
        pipeline=stats,
        mode=mode,
        prefetch=prefetch,
    )
    return result, timeline


def _simulate_faulted(fault, config: SystemConfig, net: Network,
                      batch: int, strategy: ParallelStrategy,
                      mode: ExecutionMode) \
        -> tuple[SimulationResult, ColumnarTimeline]:
    """Iteration-level fault path: re-price under degradation, fold
    against the healthy twin.

    Both legs are plain lowerings of ``fault_model="none"`` configs, so
    the degraded numbers come out of the same byte-stable pipeline as
    any user-built design -- faults only move inputs.  The timeline is
    the degraded leg's: the one whose makespan is reported.
    """
    import dataclasses

    with span("faults", model=fault.name, mode=mode.value):
        degraded, timeline = _lower(degraded_config(config), net, batch,
                                    strategy, mode)
        healthy, _ = _lower(healthy_config(config), net, batch,
                            strategy, mode)
    stats = iteration_fault_stats(
        fault, faulted_time=degraded.iteration_time,
        healthy_time=healthy.iteration_time)
    record_fault_stats(stats, mode.value)
    return (dataclasses.replace(degraded, system=config.name,
                                faults=stats), timeline)


def host_bandwidth_usage(config: SystemConfig,
                         result: SimulationResult) -> CpuBandwidthUsage:
    """Per-socket CPU memory bandwidth usage (Figure 12)."""
    if config.host_socket is None:
        raise ValueError(f"{config.name} has no host socket configured")
    concurrent = (config.vmem.channel.concurrent_bw
                  if config.virtualizes else 0.0)
    return socket_usage(config.host_socket,
                        result.host_traffic_bytes_per_device,
                        result.iteration_time, concurrent)
