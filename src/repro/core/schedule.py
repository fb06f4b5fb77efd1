"""Build one training iteration's op list for the timeline scheduler.

This is where the paper's three latency components meet: forward and
backward computation on the PE array, offload/prefetch DMAs on the
virtualization channel (with vDNN's pinned-buffer back-pressure and
bounded prefetch lookahead), and collective synchronization on the ring
networks.  The resulting :class:`~repro.core.optable.OpTable` encodes
every overlap opportunity and every stall the design point implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import NamedTuple

from repro.core import pricing
from repro.core.optable import OpTable, OpTopology, TopologyBuilder
from repro.core.system import SystemConfig
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network
from repro.dnn.layers import LayerKind
from repro.training.backprop import TrainingStep
from repro.training.parallel import ParallelStrategy, PartitionedLayer
from repro.vmem.policy import MigrationAction
from repro.vmem.prefetch import (ON_DEMAND, FetchSite, PrefetchContext,
                                 PrefetchSchedule, prefetch_policy)


@dataclass(frozen=True)
class IterationPlan:
    """Everything needed to schedule (and introspect) one iteration."""

    net: Network
    batch: int
    strategy: ParallelStrategy
    parts: dict[str, PartitionedLayer]
    step: TrainingStep
    #: producer layer -> per-device shard bytes migrated (0 if resident).
    migrated_shards: dict[str, int]

    @property
    def offload_bytes_per_device(self) -> int:
        return sum(self.migrated_shards.values())

    @property
    def round_trip_bytes_per_device(self) -> int:
        return 2 * self.offload_bytes_per_device

    @property
    def sync_bytes_per_iteration(self) -> int:
        total = 0
        for part in self.parts.values():
            for sync in (part.fwd_sync, part.bwd_sync):
                if sync is not None:
                    total += sync.nbytes
        return total


def plan_iteration(net: Network, config: SystemConfig, batch: int,
                   strategy: ParallelStrategy) -> IterationPlan:
    """Partition the network and derive the migration plan."""
    parts = {p.name: p for p in pricing.cached_partition(
        net, batch, strategy, config.n_devices)}
    tensor_plans, step = pricing.cached_migration(
        net, batch, config.virtualizes)
    migrated = {
        plan.producer: parts[plan.producer].out_shard_bytes
        for plan in tensor_plans
        if plan.action is MigrationAction.OFFLOAD
    }
    return IterationPlan(net=net, batch=batch, strategy=strategy,
                         parts=parts, step=step, migrated_shards=migrated)


def contention_fraction(compute_seconds: float,
                        comm_seconds: float) -> float:
    """Share of the iteration during which migration DMAs contend.

    Collectives occupy the shared links for roughly ``comm_seconds``
    of a ``compute_seconds``-long iteration, so a DMA issued at an
    arbitrary point is contended with that probability.  Both terms
    come from the plan (not a schedule), so every policy of one cell
    prices its transfers identically -- the clairvoyant oracle's
    dominance is a scheduling property, never a pricing artifact.
    """
    if compute_seconds <= 0.0:
        return 1.0
    return min(1.0, comm_seconds / compute_seconds)


def vmem_pricer(config: SystemConfig, compute_seconds: float,
                comm_seconds: float) -> Callable[[int], float]:
    """The DMA pricing the active prefetch policy implies.

    The legacy ``on-demand`` baseline keeps the paper's conservative
    always-contended pricing (its schedules must stay byte-identical
    to the seed's); the policy engine prices with the plan's measured
    contention fraction instead.
    """
    if config.prefetch_policy == ON_DEMAND:
        return pricing.MemoPricer(
            config.vmem.transfer_time,
            array_fn=config.vmem.transfer_time_array)
    fraction = contention_fraction(compute_seconds, comm_seconds)
    return pricing.MemoPricer(
        lambda nbytes: config.vmem.contended_transfer_time(nbytes,
                                                           fraction),
        array_fn=lambda sizes: config.vmem.contended_transfer_time_array(
            sizes, fraction))


def _price_many(pricer: Callable[[int], float],
                sizes: list[int]) -> list[float]:
    """Price a list of transfer sizes through ``pricer``.

    Uses the pricer's vectorized ``many`` batch API when it has one
    (the memoized pricers of :mod:`repro.core.pricing` do); otherwise
    falls back to per-size calls.  Values are identical either way.
    """
    many = getattr(pricer, "many", None)
    if many is not None:
        return many(sizes)
    return [pricer(nbytes) for nbytes in sizes]


def _iteration_seconds(plan: IterationPlan,
                       config: SystemConfig) -> tuple[float, float]:
    """(compute, collective) seconds of one training iteration plan."""
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    collective = pricing.collective_pricer(config.collectives)
    compute = 0.0
    comm = 0.0
    for name in plan.step.fwd_order:
        if plan.net.layer(name).kind is LayerKind.INPUT:
            continue
        part = plan.parts[name]
        fwd_s, bwd_s = times[name]
        compute += fwd_s
        compute += bwd_s
        for sync in (part.fwd_sync, part.bwd_sync):
            if sync is not None:
                comm += collective(sync.primitive, sync.nbytes)
    return compute, comm


def iteration_pricer(plan: IterationPlan,
                     config: SystemConfig) -> Callable[[int], float]:
    """The migration-DMA pricer of one training iteration."""
    compute, comm = _iteration_seconds(plan, config)
    return vmem_pricer(config, compute, comm)


def plan_training_prefetch(plan: IterationPlan, config: SystemConfig,
                           pricer: Callable[[int], float] | None
                           = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over a training iteration."""
    if pricer is None:
        pricer = iteration_pricer(plan, config)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    step_seconds = []
    sites = []
    shards = []
    for step_index, name in enumerate(plan.step.bwd_order):
        step_seconds.append(times[name][1])
        for producer in plan.step.prefetch_sites.get(name, ()):
            shard = plan.migrated_shards[producer]
            sites.append(FetchSite(producer=producer,
                                   use_step=step_index, nbytes=shard))
            shards.append(shard)
    fetch_seconds = _price_many(pricer, shards)
    ctx = PrefetchContext(
        n_steps=len(plan.step.bwd_order), sites=tuple(sites),
        step_seconds=tuple(step_seconds),
        fetch_seconds=tuple(fetch_seconds),
        window=config.prefetch_window, stash=config.prefetch_stash)
    return prefetch_policy(config.prefetch_policy).plan(ctx)


@dataclass(frozen=True)
class InferencePlan:
    """One forward-only (serving) batch on a design point.

    Inference has no backward pass and therefore no feature-map
    offload; what stresses the memory system instead is *weight
    streaming*: a consolidated serving node hosts many tenant models,
    so a request batch finds its model's weights cold in the backing
    store and must fetch them over the virtualization channel.
    Mirroring the paper's stress-test methodology (every eligible
    tensor migrates regardless of fit, Section IV), every weighted
    layer streams its weights; only designs without a migration channel
    (the oracle) keep weights resident.
    """

    net: Network
    batch: int
    strategy: ParallelStrategy
    parts: dict[str, PartitionedLayer]
    #: layer -> per-device weight bytes fetched from the backing store
    #: (tied ``weight_group`` buffers are fetched once, at the first
    #: member).
    streamed_weights: dict[str, int]

    @property
    def weight_stream_bytes_per_device(self) -> int:
        return sum(self.streamed_weights.values())

    @property
    def sync_bytes_per_iteration(self) -> int:
        total = 0
        for part in self.parts.values():
            if part.fwd_sync is not None:
                total += part.fwd_sync.nbytes
        return total


def plan_inference(net: Network, config: SystemConfig, batch: int,
                   strategy: ParallelStrategy) -> InferencePlan:
    """Partition the network and derive the weight-streaming plan."""
    if strategy is ParallelStrategy.PIPELINE:
        raise ValueError(
            "inference serving replicates the model per device; "
            "pipeline-parallel inference is not modeled")
    parts = {p.name: p for p in pricing.cached_partition(
        net, batch, strategy, config.n_devices)}
    streamed: dict[str, int] = {}
    if config.virtualizes:
        seen_groups: set[str] = set()
        for layer in net.layers:
            if not layer.weight_elems:
                continue
            if layer.weight_group:
                if layer.weight_group in seen_groups:
                    continue
                seen_groups.add(layer.weight_group)
            nbytes = layer.weight_bytes
            if strategy is ParallelStrategy.MODEL:
                # Model-parallel shards each weight matrix N-wise.
                nbytes = max(1, nbytes // config.n_devices)
            streamed[layer.name] = nbytes
    return InferencePlan(net=net, batch=batch, strategy=strategy,
                         parts=parts, streamed_weights=streamed)


def _inference_seconds(plan: InferencePlan,
                       config: SystemConfig) -> tuple[float, float]:
    """(compute, collective) seconds of one forward-only batch plan."""
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    collective = pricing.collective_pricer(config.collectives)
    compute = 0.0
    comm = 0.0
    for name in plan.net.layer_names:
        if plan.net.layer(name).kind is LayerKind.INPUT:
            continue
        part = plan.parts[name]
        compute += times[name][0]
        if part.fwd_sync is not None:
            comm += collective(part.fwd_sync.primitive,
                               part.fwd_sync.nbytes)
    return compute, comm


def inference_pricer(plan: InferencePlan,
                     config: SystemConfig) -> Callable[[int], float]:
    """The weight-streaming DMA pricer of one inference batch."""
    compute, comm = _inference_seconds(plan, config)
    return vmem_pricer(config, compute, comm)


def plan_inference_prefetch(plan: InferencePlan, config: SystemConfig,
                            pricer: Callable[[int], float] | None
                            = None) -> PrefetchSchedule:
    """Run the configured prefetch policy over the weight stream.

    Streamed weights are fetch sites exactly like training stashes:
    the consuming step of layer *k*'s weights is its forward compute,
    indexed by position among the non-input layers.
    """
    if pricer is None:
        pricer = inference_pricer(plan, config)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    step_seconds = []
    sites = []
    weights = []
    step_index = 0
    for name in plan.net.layer_names:
        layer = plan.net.layer(name)
        if layer.kind is LayerKind.INPUT:
            continue
        step_seconds.append(times[name][0])
        if name in plan.streamed_weights:
            nbytes = plan.streamed_weights[name]
            sites.append(FetchSite(producer=name, use_step=step_index,
                                   nbytes=nbytes))
            weights.append(nbytes)
        step_index += 1
    fetch_seconds = _price_many(pricer, weights)
    ctx = PrefetchContext(
        n_steps=step_index, sites=tuple(sites),
        step_seconds=tuple(step_seconds),
        fetch_seconds=tuple(fetch_seconds),
        window=config.prefetch_window, stash=config.prefetch_stash)
    return prefetch_policy(config.prefetch_policy).plan(ctx)


def _waste_by_site(waste: tuple[tuple[int, int | None, str], ...]) \
        -> dict[int, list[tuple[int, int | None, str]]]:
    """``(index, gate_step, label)`` of each waste fetch, grouped by the
    site it precedes (``index`` is its position in ``waste``)."""
    grouped: dict[int, list[tuple[int, int | None, str]]] = {}
    for index, (site, gate_step, label) in enumerate(waste):
        grouped.setdefault(site, []).append((index, gate_step, label))
    return grouped


def _waste_shape(prefetch: PrefetchSchedule) \
        -> tuple[tuple[int, int | None, str], ...]:
    return tuple((w.before_site, w.gate_step, w.label)
                 for w in prefetch.waste)


class InferenceShape(NamedTuple):
    """Everything the inference structural pass branches on: the memo
    key of a forward-only op graph.  Prices and byte counts are values,
    so batch and design stay out of it."""

    strategy: ParallelStrategy
    #: Layers whose weights stream from the backing store, in net order.
    streamed: tuple[str, ...]
    #: Non-input layers with a forward collective, in net order.
    fwd_syncs: tuple[str, ...]
    #: The prefetch policy's issue gate step per fetch site.
    gates: tuple[int | None, ...]
    #: ``(before_site, gate_step, label)`` per speculative waste fetch.
    waste: tuple[tuple[int, int | None, str], ...]


def _inference_topology(net: Network, shape: InferenceShape,
                        tag_pool: dict[str, str]) -> OpTopology:
    """The structural pass of one forward-only batch.

    Durations index ``fwd seconds per layer | shared`` and byte counts
    ``0 | shared``, where ``shared`` is one entry per forward
    collective, then per streamed weight, then per waste fetch.
    """
    layers = tuple(net.layer_names)
    fwd_at = {name: i for i, name in enumerate(layers)}
    shared = len(layers)
    sync_at = {name: i for i, name in enumerate(shape.fwd_syncs)}
    fetch_at = {name: len(sync_at) + i
                for i, name in enumerate(shape.streamed)}
    waste0 = len(sync_at) + len(fetch_at)
    waste_before = _waste_by_site(shape.waste)

    ops = TopologyBuilder(tag_pool)
    ready: dict[str, int | None] = {}
    sync_uid: dict[str, int] = {}
    computes: list[int] = []
    site_index = 0

    def fetch_gate(gate_step: int | None) -> list[int]:
        return [] if gate_step is None else [computes[gate_step]]

    for name in layers:
        if net.layer(name).kind is LayerKind.INPUT:
            ready[name] = None
            continue

        preds = net.predecessors(name)
        deps = [ready[p] for p in preds if ready.get(p) is not None]
        # Chunk-pipelined layer-boundary collectives, exactly as in the
        # training forward pass: wait on grandparents' all-gathers.
        for p in preds:
            for gp in net.predecessors(p):
                if gp in sync_uid:
                    deps.append(sync_uid[gp])

        if name in fetch_at:
            gate_step = shape.gates[site_index]
            for index, waste_gate, label in waste_before.get(site_index,
                                                             ()):
                k = waste0 + index
                ops.add(EngineKind.DMA_IN, shared + k,
                        fetch_gate(waste_gate), tag=f"waste:{label}",
                        byte_src=1 + k)
            site_index += 1
            k = fetch_at[name]
            deps.append(ops.add(EngineKind.DMA_IN, shared + k,
                                fetch_gate(gate_step),
                                tag=f"wfetch:{name}", byte_src=1 + k))

        compute = ops.add(EngineKind.COMPUTE, fwd_at[name], deps,
                          tag=f"fwd:{name}")
        computes.append(compute)
        if name in sync_at:
            k = sync_at[name]
            sync_uid[name] = ops.add(EngineKind.COMM, shared + k,
                                     [compute], tag=f"sync-fwd:{name}",
                                     byte_src=1 + k)
        ready[name] = compute

    return ops.freeze(layers=layers)


def build_inference_ops(plan: InferencePlan, config: SystemConfig,
                        prefetch: PrefetchSchedule | None = None,
                        pricer: Callable[[int], float] | None = None) \
        -> OpTable:
    """Emit one forward-only batch's ops in issue order.

    Weight fetches ride the prefetch DMA engine, gated per the active
    prefetch policy (the legacy bounded lookahead under ``on-demand``),
    so a fast backing store hides them behind compute and a slow one
    exposes them -- the serving-time memory wall.

    The op graph comes from the process-wide topology memo (built by
    the structural pass on a miss); this pricing pass only fills in the
    cell's durations and byte counts.
    """
    if pricer is None:
        pricer = inference_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_inference_prefetch(plan, config, pricer)
    net = plan.net
    parts = plan.parts
    shape = InferenceShape(
        strategy=plan.strategy,
        streamed=tuple(plan.streamed_weights),
        fwd_syncs=tuple(name for name, part in parts.items()
                        if part.fwd_sync is not None
                        and part.kind is not LayerKind.INPUT),
        gates=tuple(issue.gate_step for issue in prefetch.issues),
        waste=_waste_shape(prefetch))
    topology = pricing.cached_topology(
        net, shape, lambda pool: _inference_topology(net, shape, pool))

    times = pricing.layer_times(net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    collective = pricing.collective_pricer(config.collectives)
    syncs = [parts[name].fwd_sync for name in shape.fwd_syncs]
    sizes = ([plan.streamed_weights[name] for name in shape.streamed]
             + [waste.nbytes for waste in prefetch.waste])
    seconds = [times[name][0] for name in topology.segments["layers"]]
    seconds += [collective(sync.primitive, sync.nbytes) for sync in syncs]
    seconds += _price_many(pricer, sizes)
    return topology.table(seconds,
                          [0] + [sync.nbytes for sync in syncs] + sizes)


class TrainingShape(NamedTuple):
    """Everything the training structural pass branches on: the memo
    key of one iteration's op graph.  Prices and byte counts are
    values, so batch, device and design stay out of it."""

    strategy: ParallelStrategy
    offload_window: int
    fwd_order: tuple[str, ...]
    bwd_order: tuple[str, ...]
    prefetch_sites: tuple[tuple[str, tuple[str, ...]], ...]
    recompute_sites: tuple[tuple[str, tuple[str, ...]], ...]
    #: Non-input layers with a forward collective, in forward order.
    fwd_syncs: tuple[str, ...]
    #: Layers with a backward collective, in backward order.
    bwd_syncs: tuple[str, ...]
    #: The prefetch policy's issue gate step per fetch site.
    gates: tuple[int | None, ...]
    #: ``(before_site, gate_step, label)`` per speculative waste fetch.
    waste: tuple[tuple[int, int | None, str], ...]
    #: Layers whose weight grad is a separate op, in backward order;
    #: ``None`` when the backward pass is not split.
    wgrad: tuple[str, ...] | None


def _training_topology(net: Network, shape: TrainingShape,
                       tag_pool: dict[str, str]) -> OpTopology:
    """The structural pass of one training iteration.

    Durations index ``fwd seconds per layer | bwd seconds per layer |
    wgrad seconds | shared`` and byte counts ``0 | shared``, where
    ``shared`` is one entry per forward collective, per backward
    collective, per offloaded tensor (its offload and its prefetch move
    the same shard), then per waste fetch.
    """
    layers = shape.fwd_order
    prefetch_sites = dict(shape.prefetch_sites)
    recompute_sites = dict(shape.recompute_sites)
    is_input = {name: net.layer(name).kind is LayerKind.INPUT
                for name in layers}
    offloads = tuple(producer for name in layers if not is_input[name]
                     for producer in prefetch_sites.get(name, ()))
    wgrad = shape.wgrad or ()
    model_parallel = shape.strategy is ParallelStrategy.MODEL
    window = shape.offload_window

    fwd_at = {name: i for i, name in enumerate(layers)}
    bwd0 = len(layers)
    wgrad_at = {name: 2 * len(layers) + i for i, name in enumerate(wgrad)}
    shared = 2 * len(layers) + len(wgrad)
    fsync_at = {name: i for i, name in enumerate(shape.fwd_syncs)}
    bsync_at = {name: len(fsync_at) + i
                for i, name in enumerate(shape.bwd_syncs)}
    shard_at = {producer: len(fsync_at) + len(bsync_at) + i
                for i, producer in enumerate(offloads)}
    waste0 = len(fsync_at) + len(bsync_at) + len(offloads)
    waste_before = _waste_by_site(shape.waste)

    ops = TopologyBuilder(tag_pool)
    site_index = 0
    fwd_ready: dict[str, int | None] = {}
    fwd_sync_uid: dict[str, int] = {}
    offload_uid: dict[str, int] = {}     # producer -> its offload op
    offload_order: list[int] = []

    # ---- Forward propagation -------------------------------------------
    for name in layers:
        if is_input[name]:
            fwd_ready[name] = None
            continue

        preds = net.predecessors(name)
        deps = [fwd_ready[p] for p in preds
                if fwd_ready.get(p) is not None]
        # Layer-boundary collectives are chunk-pipelined with the
        # consumer's compute (NCCL-style): a layer may run one step
        # ahead of communication, so it waits on its *grandparents'*
        # all-gathers, not its parents'.
        for p in preds:
            for gp in net.predecessors(p):
                if gp in fwd_sync_uid:
                    deps.append(fwd_sync_uid[gp])
        # vDNN pinned-buffer back-pressure: at most `offload_window`
        # offloads may be outstanding before compute stalls.
        if len(offload_order) >= window:
            deps.append(offload_order[-window])
        compute = ops.add(EngineKind.COMPUTE, fwd_at[name], deps,
                          tag=f"fwd:{name}")
        ready = compute
        if name in fsync_at:
            k = fsync_at[name]
            ready = fwd_sync_uid[name] = ops.add(
                EngineKind.COMM, shared + k, [compute],
                tag=f"sync-fwd:{name}", byte_src=1 + k)
        fwd_ready[name] = compute

        # Offload every tensor whose last forward reuse is this layer;
        # a gathered tensor only becomes complete after its collective.
        for producer in prefetch_sites.get(name, ()):
            k = shard_at[producer]
            uid = ops.add(EngineKind.DMA_OUT, shared + k, [ready],
                          tag=f"offload:{producer}", byte_src=1 + k)
            offload_uid[producer] = uid
            offload_order.append(uid)

    # ---- Backward propagation ------------------------------------------
    bwd_ready: dict[str, int] = {}
    bwd_sync_uid: dict[str, int] = {}
    bwd_computes: list[int] = []

    def step_gate(gate_step: int | None) -> list[int]:
        return [] if gate_step is None else [bwd_computes[gate_step]]

    for name in shape.bwd_order:
        succs = net.successors(name)
        deps = [bwd_ready[s] for s in succs if s in bwd_ready]
        # Pipelined gradient collectives: one step of run-ahead, so a
        # layer's backward waits on its grand-successors' dX reductions.
        if model_parallel:
            for s in succs:
                for gs in net.successors(s):
                    if gs in bwd_sync_uid:
                        deps.append(bwd_sync_uid[gs])
        if not deps and fwd_ready.get(name) is not None:
            # The loss-side frontier starts once forward has finished.
            deps = [fwd_ready[name]]  # type: ignore[list-item]

        # Prefetches feeding this backward step, gated per the active
        # policy's issue plan (the legacy bounded lookahead under
        # on-demand; earlier or later elsewhere on the axis).
        prefetch_ids = []
        for producer in prefetch_sites.get(name, ()):
            for index, waste_gate, label in waste_before.get(site_index,
                                                             ()):
                k = waste0 + index
                ops.add(EngineKind.DMA_IN, shared + k,
                        step_gate(waste_gate), tag=f"waste:{label}",
                        byte_src=1 + k)
            gate = step_gate(shape.gates[site_index])
            site_index += 1
            k = shard_at[producer]
            prefetch_ids.append(ops.add(
                EngineKind.DMA_IN, shared + k,
                gate + [offload_uid[producer]],
                tag=f"prefetch:{producer}", byte_src=1 + k))

        # Cheap tensors regenerated instead of migrated (footnote 4).
        recompute_ids = [
            ops.add(EngineKind.COMPUTE, fwd_at[producer],
                    list(prefetch_ids), tag=f"recompute:{producer}")
            for producer in recompute_sites.get(name, ())]

        compute = ops.add(EngineKind.COMPUTE, bwd0 + fwd_at[name],
                          deps + prefetch_ids + recompute_ids,
                          tag=f"bwd:{name}")
        bwd_computes.append(compute)
        grad_done = compute
        if name in wgrad_at:
            grad_done = ops.add(EngineKind.COMPUTE, wgrad_at[name],
                                [compute], tag=f"wgrad:{name}")

        if name in bsync_at:
            # dX reductions (model parallel) only need the activation
            # grad; dW all-reduces wait for the weight grad.  Model-
            # parallel dX reductions gate the grand-producers' backward
            # pass (pipelined, above); data-parallel dW all-reduces only
            # gate iteration end.
            k = bsync_at[name]
            bwd_sync_uid[name] = ops.add(
                EngineKind.COMM, shared + k,
                [compute if model_parallel else grad_done],
                tag=f"sync-bwd:{name}", byte_src=1 + k)
        bwd_ready[name] = compute

    return ops.freeze(layers=layers, offloads=offloads)


def build_iteration_ops(plan: IterationPlan, config: SystemConfig,
                        prefetch: PrefetchSchedule | None = None,
                        pricer: Callable[[int], float] | None = None,
                        split_wgrad: bool = False) -> OpTable:
    """Emit the iteration's ops in dependency-consistent issue order.

    ``prefetch`` carries the active policy's issue plan (computed from
    the config's ``prefetch_policy`` when omitted); the ``on-demand``
    baseline reproduces the seed's gate structure and pricing
    byte-for-byte.  Callers that already derived the DMA ``pricer``
    (one O(layers) plan walk) can pass it to avoid recomputing.

    With ``split_wgrad`` each weighted layer's backward is emitted as
    two ops -- ``bwd:{name}`` (activation grad, what successors and dX
    reductions wait on) and ``wgrad:{name}`` (weight grad, what dW
    all-reduces wait on) -- mirroring the zero-bubble pipeline B/W
    split at single-device granularity.  Off (the default) the op
    stream is byte-identical to the seed's.

    The op graph comes from the process-wide topology memo (built by
    the structural pass on a miss); this pricing pass only fills in the
    cell's durations and byte counts.
    """
    if pricer is None:
        pricer = iteration_pricer(plan, config)
    if prefetch is None:
        prefetch = plan_training_prefetch(plan, config, pricer)
    net = plan.net
    parts = plan.parts
    step = plan.step
    wgrad = None
    if split_wgrad:
        op_time = config.device.op_time
        wgrad = {name: op_time(parts[name].bwd_gemms[1::2], 0)
                 for name in step.bwd_order if parts[name].bwd_gemms}
    shape = TrainingShape(
        strategy=plan.strategy,
        offload_window=config.offload_window,
        fwd_order=step.fwd_order,
        bwd_order=step.bwd_order,
        prefetch_sites=tuple(step.prefetch_sites.items()),
        recompute_sites=tuple(step.recompute_sites.items()),
        fwd_syncs=tuple(name for name, part in parts.items()
                        if part.fwd_sync is not None
                        and part.kind is not LayerKind.INPUT),
        bwd_syncs=tuple(name for name in step.bwd_order
                        if parts[name].bwd_sync is not None),
        gates=tuple(issue.gate_step for issue in prefetch.issues),
        waste=_waste_shape(prefetch),
        wgrad=None if wgrad is None else tuple(
            name for name, seconds in wgrad.items() if seconds > 0.0))
    topology = pricing.cached_topology(
        net, shape, lambda pool: _training_topology(net, shape, pool))

    layers = topology.segments["layers"]
    times = pricing.layer_times(net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    pairs = [times[name] for name in layers]
    bwd = [pair[1] for pair in pairs]
    if wgrad:
        bwd = [max(0.0, seconds - wgrad[name]) if name in wgrad
               else seconds for name, seconds in zip(layers, bwd)]
    collective = pricing.collective_pricer(config.collectives)
    syncs = ([parts[name].fwd_sync for name in shape.fwd_syncs]
             + [parts[name].bwd_sync for name in shape.bwd_syncs])
    sizes = ([plan.migrated_shards[producer]
              for producer in topology.segments["offloads"]]
             + [waste.nbytes for waste in prefetch.waste])
    seconds = [pair[0] for pair in pairs] + bwd
    if shape.wgrad:
        seconds += [wgrad[name] for name in shape.wgrad]
    seconds += [collective(sync.primitive, sync.nbytes) for sync in syncs]
    seconds += _price_many(pricer, sizes)
    return topology.table(seconds,
                          [0] + [sync.nbytes for sync in syncs] + sizes)
