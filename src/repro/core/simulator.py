"""Top-level system simulator (paper Section IV's methodology).

``simulate(config, network, batch, strategy)`` runs one training
iteration of a benchmark on a design point and returns a
:class:`~repro.core.metrics.SimulationResult` carrying the iteration
time, the Figure 11 latency breakdown, and the traffic accounting that
feeds Figure 12.
"""

from __future__ import annotations

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


def _resolve(network: Network | str) -> Network:
    if isinstance(network, str):
        return build_network(network)
    return network


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
    net = _resolve(network)
    fault = active_fault_model(config)
    if fault is not None:
        return _simulate_faulted(fault, config, net, batch, strategy,
                                 mode)
    if mode is ExecutionMode.INFERENCE:
        return _simulate_inference(config, net, batch, strategy)
    if mode is not ExecutionMode.TRAINING:
        raise ValueError(f"simulate() cannot run mode {mode}; serving "
                         f"runs through repro.serving")
    if strategy is ParallelStrategy.PIPELINE:
        return _simulate_pipeline(config, net, batch)
    with span("plan", mode="training"):
        plan = plan_iteration(net, config, batch, strategy)
    with span("price", mode="training"):
        pricer = iteration_pricer(plan, config)
        psched = plan_training_prefetch(plan, config, pricer)
    with span("emit", mode="training"):
        ops = build_iteration_ops(plan, config, prefetch=psched,
                                  pricer=pricer)
    with span("schedule", mode="training"):
        timeline = schedule_ops(ops)

    breakdown = LatencyBreakdown(
        compute=timeline.busy_time(EngineKind.COMPUTE),
        sync=timeline.busy_time(EngineKind.COMM),
        vmem=(timeline.busy_time(EngineKind.DMA_OUT)
              + timeline.busy_time(EngineKind.DMA_IN)))

    host_traffic = (plan.round_trip_bytes_per_device
                    if config.uses_host_memory else 0)
    # Weak scaling: every worker trains a full `batch` (data-parallel)
    # or materializes full gathered feature maps (model-parallel), so
    # the per-device footprint is the full-batch footprint either way.
    footprint = net.training_footprint_bytes(batch)

    return SimulationResult(
        system=config.name,
        network=net.name,
        batch=batch,
        strategy=strategy,
        n_devices=config.n_devices,
        iteration_time=timeline.makespan,
        breakdown=breakdown,
        offload_bytes_per_device=plan.offload_bytes_per_device,
        sync_bytes=plan.sync_bytes_per_iteration,
        host_traffic_bytes_per_device=host_traffic,
        fits_in_device_memory=footprint <= config.device.memory_capacity,
        prefetch=collect_prefetch_stats(timeline, psched.policy,
                                        evictions=psched.evictions),
    )


def _simulate_faulted(fault, config: SystemConfig, net: Network,
                      batch: int, strategy: ParallelStrategy,
                      mode: ExecutionMode) -> SimulationResult:
    """Iteration-level fault path: re-price under degradation, fold
    against the healthy twin.

    Both legs are plain :func:`simulate` calls on ``fault_model="none"``
    configs, so the degraded numbers come out of the same byte-stable
    pipeline as any user-built design -- faults only move inputs.
    """
    import dataclasses

    with span("faults", model=fault.name, mode=mode.value):
        degraded = simulate(degraded_config(config), net, batch,
                            strategy, mode)
        healthy = simulate(healthy_config(config), net, batch,
                           strategy, mode)
    stats = iteration_fault_stats(
        fault, faulted_time=degraded.iteration_time,
        healthy_time=healthy.iteration_time)
    record_fault_stats(stats, mode.value)
    return dataclasses.replace(degraded, system=config.name,
                               faults=stats)


def _simulate_inference(config: SystemConfig, net: Network, batch: int,
                        strategy: ParallelStrategy) -> SimulationResult:
    """Forward-only batch with multi-tenant weight streaming.

    ``iteration_time`` is the end-to-end latency of serving one request
    batch on one device replica (data-parallel) or across the node
    (model-parallel).  ``offload_bytes_per_device`` reports the
    *one-way* weight bytes fetched from the backing store -- inference
    pushes nothing back.
    """
    with span("plan", mode="inference"):
        plan = plan_inference(net, config, batch, strategy)
    with span("price", mode="inference"):
        pricer = inference_pricer(plan, config)
        psched = plan_inference_prefetch(plan, config, pricer)
    with span("emit", mode="inference"):
        ops = build_inference_ops(plan, config, prefetch=psched,
                                  pricer=pricer)
    with span("schedule", mode="inference"):
        timeline = schedule_ops(ops)

    breakdown = LatencyBreakdown(
        compute=timeline.busy_time(EngineKind.COMPUTE),
        sync=timeline.busy_time(EngineKind.COMM),
        vmem=(timeline.busy_time(EngineKind.DMA_OUT)
              + timeline.busy_time(EngineKind.DMA_IN)))

    streamed = plan.weight_stream_bytes_per_device
    host_traffic = streamed if config.uses_host_memory else 0
    footprint = net.inference_footprint_bytes(batch)

    return SimulationResult(
        system=config.name,
        network=net.name,
        batch=batch,
        strategy=strategy,
        n_devices=config.n_devices,
        iteration_time=timeline.makespan,
        breakdown=breakdown,
        offload_bytes_per_device=streamed,
        sync_bytes=plan.sync_bytes_per_iteration,
        host_traffic_bytes_per_device=host_traffic,
        fits_in_device_memory=footprint <= config.device.memory_capacity,
        mode=ExecutionMode.INFERENCE,
        prefetch=collect_prefetch_stats(timeline, psched.policy,
                                        evictions=psched.evictions),
    )


def _simulate_pipeline(config: SystemConfig, net: Network,
                       batch: int) -> SimulationResult:
    """Pipeline-parallel path: stages are asymmetric, so the timeline
    spans every stage on its own engine channel."""
    # Imported lazily: repro.pipeline depends on repro.core.
    from repro.pipeline.lowering import (build_pipeline_ops,
                                         pipeline_pricer,
                                         pipeline_stats, plan_pipeline,
                                         plan_pipeline_prefetch)

    with span("plan", mode="pipeline"):
        plan = plan_pipeline(net, config, batch)
    with span("price", mode="pipeline"):
        pricer = pipeline_pricer(plan, config)
        psched = plan_pipeline_prefetch(plan, config, pricer)
    with span("emit", mode="pipeline"):
        ops = build_pipeline_ops(plan, config, prefetch=psched,
                                 pricer=pricer)
    with span("schedule", mode="pipeline"):
        timeline = schedule_ops(ops)
    stats = pipeline_stats(plan, timeline)

    breakdown = LatencyBreakdown(
        compute=timeline.busy_time(EngineKind.COMPUTE),
        sync=timeline.busy_time(EngineKind.COMM),
        vmem=(timeline.busy_time(EngineKind.DMA_OUT)
              + timeline.busy_time(EngineKind.DMA_IN)))

    offload = plan.offload_bytes_per_device
    host_traffic = 2 * offload if config.uses_host_memory else 0

    return SimulationResult(
        system=config.name,
        network=net.name,
        batch=batch,
        strategy=ParallelStrategy.PIPELINE,
        n_devices=config.n_devices,
        iteration_time=timeline.makespan,
        breakdown=breakdown,
        offload_bytes_per_device=offload,
        sync_bytes=plan.sync_bytes_per_iteration,
        host_traffic_bytes_per_device=host_traffic,
        fits_in_device_memory=(plan.max_stage_footprint_bytes
                               <= config.device.memory_capacity),
        pipeline=stats,
        prefetch=collect_prefetch_stats(
            timeline, config.prefetch_policy,
            evictions=sum(s.evictions for s in psched)),
    )


def iteration_timeline(config: SystemConfig, network: Network | str,
                       batch: int = DEFAULT_BATCH,
                       strategy: ParallelStrategy =
                       ParallelStrategy.DATA) -> ColumnarTimeline:
    """The scheduled engine timeline of one iteration (trace export)."""
    net = _resolve(network)
    if strategy is ParallelStrategy.PIPELINE:
        from repro.pipeline.lowering import (build_pipeline_ops,
                                             plan_pipeline)
        plan = plan_pipeline(net, config, batch)
        return schedule_ops(build_pipeline_ops(plan, config))
    plan = plan_iteration(net, config, batch, strategy)
    return schedule_ops(build_iteration_ops(plan, config))


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
