"""The emitters' topology memo: exact, keyed on structure, and clean.

``build_iteration_ops`` and ``build_inference_ops`` build each op graph
once per structure key (the structural pass) and re-price it per cell
(the pricing pass).  These tests hold a memoised table to a fresh
structural-plus-pricing emission of the same cell, column by column
and with ``==`` on durations, cold and on a hit, over every training
and inference cell of ``tests/golden/core_results.json`` crossed with
every prefetch policy and ``split_wgrad`` on and off, in shuffled
order.  The single-pass emitters the two passes replaced are kept
below as the reference every emitted table must equal.  (The golden's pipeline cells use the pipeline emitter, which
has no topology memo; its serving and cluster cells reach the two
emitters through ``simulate()`` and are pinned by the golden itself.)
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.core import pricing, schedule
from repro.core.design_points import design_point
from repro.core.optable import OpTable
from repro.core.schedule import (build_inference_ops, build_iteration_ops,
                                 inference_pricer, iteration_pricer,
                                 plan_inference, plan_inference_prefetch,
                                 plan_iteration, plan_training_prefetch)
from repro.core.timeline import EngineKind
from repro.dnn.graph import Network, input_layer
from repro.dnn.layers import Layer, LayerKind
from repro.dnn.registry import build_network
from repro.dnn.shapes import fc_gemm
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

GOLDEN_PATH = Path(__file__).parent / "golden" / "core_results.json"
GOLDEN_BATCH = 512
INFERENCE_BATCH = 64


def reference_inference_ops(plan, config) -> OpTable:
    """The single-pass inference emitter (one ``OpTable.add`` per op,
    every price looked up per op)."""
    pricer = inference_pricer(plan, config)
    prefetch = plan_inference_prefetch(plan, config, pricer)
    waste_before = prefetch.waste_before()
    ops = OpTable()
    collective = pricing.collective_pricer(config.collectives)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    net = plan.net
    ready: dict = {}
    sync_uid: dict = {}
    computes: list = []
    site_index = 0

    def fetch_gate(gate_step):
        return [] if gate_step is None else [computes[gate_step]]

    for name in net.layer_names:
        if net.layer(name).kind is LayerKind.INPUT:
            ready[name] = None
            continue
        part = plan.parts[name]
        preds = net.predecessors(name)
        deps = [ready[p] for p in preds if ready.get(p) is not None]
        for p in preds:
            for gp in net.predecessors(p):
                if gp in sync_uid:
                    deps.append(sync_uid[gp])
        if name in plan.streamed_weights:
            issue = prefetch.issues[site_index]
            for waste in waste_before.get(site_index, ()):
                ops.add(EngineKind.DMA_IN, pricer(waste.nbytes),
                        fetch_gate(waste.gate_step),
                        tag=f"waste:{waste.label}", nbytes=waste.nbytes)
            site_index += 1
            nbytes = plan.streamed_weights[name]
            deps.append(ops.add(EngineKind.DMA_IN, pricer(nbytes),
                                fetch_gate(issue.gate_step),
                                tag=f"wfetch:{name}", nbytes=nbytes))
        compute = ops.add(EngineKind.COMPUTE, times[name][0], deps,
                          tag=f"fwd:{name}")
        computes.append(compute)
        if part.fwd_sync is not None:
            sync_uid[name] = ops.add(
                EngineKind.COMM, collective(part.fwd_sync.primitive,
                                            part.fwd_sync.nbytes),
                [compute], tag=f"sync-fwd:{name}",
                nbytes=part.fwd_sync.nbytes)
        ready[name] = compute
    return ops


def reference_iteration_ops(plan, config, split_wgrad) -> OpTable:
    """The single-pass training emitter (one ``OpTable.add`` per op,
    every price looked up per op)."""
    pricer = iteration_pricer(plan, config)
    prefetch = plan_training_prefetch(plan, config, pricer)
    waste_before = prefetch.waste_before()
    ops = OpTable()
    collective = pricing.collective_pricer(config.collectives)
    times = pricing.layer_times(plan.net, config.device, plan.batch,
                                plan.strategy, config.n_devices)
    net = plan.net
    model_parallel = plan.strategy is ParallelStrategy.MODEL
    site_index = 0
    fwd_ready: dict = {}
    fwd_sync_uid: dict = {}
    offload_uid: dict = {}
    offload_order: list = []
    for name in plan.step.fwd_order:
        part = plan.parts[name]
        if net.layer(name).kind is LayerKind.INPUT:
            fwd_ready[name] = None
            continue
        preds = net.predecessors(name)
        deps = [fwd_ready[p] for p in preds
                if fwd_ready.get(p) is not None]
        for p in preds:
            for gp in net.predecessors(p):
                if gp in fwd_sync_uid:
                    deps.append(fwd_sync_uid[gp])
        if len(offload_order) >= config.offload_window:
            deps.append(offload_order[-config.offload_window])
        compute = ops.add(EngineKind.COMPUTE, times[name][0], deps,
                          tag=f"fwd:{name}")
        ready = compute
        if part.fwd_sync is not None:
            ready = fwd_sync_uid[name] = ops.add(
                EngineKind.COMM, collective(part.fwd_sync.primitive,
                                            part.fwd_sync.nbytes),
                [compute], tag=f"sync-fwd:{name}",
                nbytes=part.fwd_sync.nbytes)
        fwd_ready[name] = compute
        for producer in plan.step.prefetch_sites.get(name, ()):
            shard = plan.migrated_shards[producer]
            uid = ops.add(EngineKind.DMA_OUT, pricer(shard), [ready],
                          tag=f"offload:{producer}", nbytes=shard)
            offload_uid[producer] = uid
            offload_order.append(uid)

    bwd_ready: dict = {}
    bwd_sync_uid: dict = {}
    bwd_computes: list = []

    def step_gate(gate_step):
        return [] if gate_step is None else [bwd_computes[gate_step]]

    for name in plan.step.bwd_order:
        part = plan.parts[name]
        succs = net.successors(name)
        deps = [bwd_ready[s] for s in succs if s in bwd_ready]
        if model_parallel:
            for s in succs:
                for gs in net.successors(s):
                    if gs in bwd_sync_uid:
                        deps.append(bwd_sync_uid[gs])
        if not deps and fwd_ready.get(name) is not None:
            deps = [fwd_ready[name]]
        prefetch_ids = []
        for producer in plan.step.prefetch_sites.get(name, ()):
            issue = prefetch.issues[site_index]
            for waste in waste_before.get(site_index, ()):
                ops.add(EngineKind.DMA_IN, pricer(waste.nbytes),
                        step_gate(waste.gate_step),
                        tag=f"waste:{waste.label}", nbytes=waste.nbytes)
            site_index += 1
            shard = plan.migrated_shards[producer]
            prefetch_ids.append(ops.add(
                EngineKind.DMA_IN, pricer(shard),
                step_gate(issue.gate_step) + [offload_uid[producer]],
                tag=f"prefetch:{producer}", nbytes=shard))
        recompute_ids = [
            ops.add(EngineKind.COMPUTE, times[producer][0],
                    list(prefetch_ids), tag=f"recompute:{producer}")
            for producer in plan.step.recompute_sites.get(name, ())]
        bwd_seconds = times[name][1]
        wgrad_seconds = 0.0
        if split_wgrad and part.bwd_gemms:
            wgrad_seconds = config.device.op_time(part.bwd_gemms[1::2], 0)
            bwd_seconds = max(0.0, bwd_seconds - wgrad_seconds)
        compute = ops.add(EngineKind.COMPUTE, bwd_seconds,
                          deps + prefetch_ids + recompute_ids,
                          tag=f"bwd:{name}")
        bwd_computes.append(compute)
        grad_done = compute
        if wgrad_seconds > 0.0:
            grad_done = ops.add(EngineKind.COMPUTE, wgrad_seconds,
                                [compute], tag=f"wgrad:{name}")
        if part.bwd_sync is not None:
            bwd_sync_uid[name] = ops.add(
                EngineKind.COMM, collective(part.bwd_sync.primitive,
                                            part.bwd_sync.nbytes),
                [compute if model_parallel else grad_done],
                tag=f"sync-bwd:{name}", nbytes=part.bwd_sync.nbytes)
        bwd_ready[name] = compute
    return ops


def golden_cells() -> list[tuple]:
    """``(design, network, batch, strategy, inference, policy,
    split_wgrad)`` for every training and inference golden cell."""
    cells = []
    for key in json.loads(GOLDEN_PATH.read_text()):
        parts = key.split("/")
        if parts[0] == "inference":
            base = [(parts[1], parts[2], INFERENCE_BATCH,
                     ParallelStrategy.DATA, True, False)]
        elif parts[0] == "prefetch":
            base = [(parts[2], parts[3], 128, ParallelStrategy.DATA,
                     False, split) for split in (False, True)]
        elif parts[0] in ("pipeline", "serving", "cluster"):
            continue
        else:
            base = [(parts[0], parts[1], GOLDEN_BATCH,
                     ParallelStrategy(parts[2]), False, split)
                    for split in (False, True)]
        cells += [(*cell[:5], policy, cell[5]) for cell in base
                  for policy in PREFETCH_POLICY_ORDER]
    return sorted(set(cells), key=repr)


def emit(cell, reference: bool = False) -> OpTable:
    design, network, batch, strategy, inference, policy, split = cell
    config = dataclasses.replace(design_point(design),
                                 prefetch_policy=policy)
    net = build_network(network)
    if inference:
        plan = plan_inference(net, config, batch, strategy)
        if reference:
            return reference_inference_ops(plan, config)
        return build_inference_ops(plan, config)
    plan = plan_iteration(net, config, batch, strategy)
    if reference:
        return reference_iteration_ops(plan, config, split)
    return build_iteration_ops(plan, config, split_wgrad=split)


def columns(table: OpTable) -> tuple:
    return (table.codes, table.durations, table.deps, table.tags,
            table.nbytes, table.channels)


@pytest.fixture
def structural_passes(monkeypatch):
    """Count the structural passes the emitters run."""
    calls = [0]
    for name in ("_training_topology", "_inference_topology"):
        real = getattr(schedule, name)

        def counted(*args, _real=real):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(schedule, name, counted)
    return calls


def test_golden_covers_both_emitters():
    cells = golden_cells()
    assert any(cell[4] for cell in cells)
    assert any(cell[6] for cell in cells)
    assert len(cells) == (96 * 2 + 2 + 2) * len(PREFETCH_POLICY_ORDER)


def test_memoised_tables_equal_fresh_emission(monkeypatch):
    cells = golden_cells()
    random.Random(20181020).shuffle(cells)
    with monkeypatch.context() as patch:
        patch.setattr(pricing, "cached_topology",
                      lambda net, key, build: build({}))
        fresh = {cell: columns(emit(cell)) for cell in cells}
    for cell in cells:
        assert columns(emit(cell, reference=True)) == fresh[cell], cell
    pricing.clear_caches()
    for rounds in ("cold", "hit"):
        for cell in cells:
            assert columns(emit(cell)) == fresh[cell], (rounds, cell)
        random.Random(rounds).shuffle(cells)


def test_clear_caches_makes_the_next_emission_a_miss(structural_passes):
    cell = ("MC-DLA(B)", "VGG-E", 256, ParallelStrategy.DATA, False,
            "on-demand", False)
    pricing.clear_caches()
    cold = columns(emit(cell))
    assert structural_passes[0] == 1
    assert columns(emit(cell)) == cold
    assert structural_passes[0] == 1
    pricing.clear_caches()
    assert columns(emit(cell)) == cold
    assert structural_passes[0] == 2


def test_hits_and_misses_are_counted():
    from repro import telemetry

    pricing.clear_caches()
    telemetry.enable(fresh=True)
    try:
        for batch in (128, 256, 128):
            emit(("DC-DLA", "AlexNet", batch, ParallelStrategy.MODEL,
                  False, "stride", False))
        counters = {(entry["name"], entry["labels"].get("memo")):
                    entry["value"]
                    for entry in telemetry.metrics_registry()
                    .snapshot()["counters"]}
    finally:
        telemetry.disable()
    assert counters[("repro_pricing_memo_misses_total", "topology")] >= 1
    assert counters[("repro_pricing_memo_hits_total", "topology")] >= 1
    assert (counters[("repro_pricing_memo_misses_total", "topology")]
            + counters[("repro_pricing_memo_hits_total", "topology")]) == 3


def small_net() -> Network:
    net = Network("topology-test")
    net.add_layer(input_layer("in", 64))
    prev = "in"
    for i in range(3):
        net.add_layer(Layer(name=f"fc{i}", kind=LayerKind.FC,
                            out_elems=64, weight_elems=64 * 64,
                            gemms=(fc_gemm(64, 64),)), inputs=[prev])
        prev = f"fc{i}"
    net.validate()
    return net


@pytest.mark.parametrize("inference", [False, True])
def test_mutated_network_misses(structural_passes, inference):
    """A weightless layer leaves the inference key's streamed-weight
    and collective tuples as they were; only the version tells."""
    net = small_net()
    config = design_point("DC-DLA")

    def emit_small() -> OpTable:
        if inference:
            return build_inference_ops(
                plan_inference(net, config, 32, ParallelStrategy.DATA),
                config)
        return build_iteration_ops(
            plan_iteration(net, config, 32, ParallelStrategy.MODEL),
            config)

    before = emit_small()
    emit_small()
    assert structural_passes[0] == 1
    net.add_layer(Layer(name="act", kind=LayerKind.ACT, out_elems=64,
                        stream_elems=64), inputs=["fc2"])
    after = emit_small()
    assert structural_passes[0] == 2
    assert "fwd:act" in after.tags and "fwd:act" not in before.tags
    assert len(after) > len(before)


def test_equal_keys_share_structure_not_values(structural_passes):
    pricing.clear_caches()
    small = emit(("MC-DLA(B)", "VGG-E", 256, ParallelStrategy.DATA,
                  False, "on-demand", False))
    large = emit(("MC-DLA(B)", "VGG-E", 512, ParallelStrategy.DATA,
                  False, "on-demand", False))
    assert structural_passes[0] == 1  # the second cell was a hit
    assert large.deps == small.deps
    assert large.tags == small.tags
    assert large.codes == small.codes
    assert large.nbytes != small.nbytes
    assert large.durations != small.durations


def test_offload_window_is_structure():
    """No golden cell varies the pinned-buffer depth; it still keys."""
    net = build_network("VGG-E")
    tables = []
    for window in (1, 4, 1):
        config = dataclasses.replace(design_point("DC-DLA"),
                                     offload_window=window)
        tables.append(build_iteration_ops(
            plan_iteration(net, config, 256, ParallelStrategy.DATA),
            config))
    assert tables[0].deps != tables[1].deps
    assert columns(tables[2]) == columns(tables[0])


def test_pricing_pass_rejects_nan_durations(monkeypatch):
    net = small_net()
    config = design_point("DC-DLA")
    plan = plan_iteration(net, config, 32, ParallelStrategy.DATA)
    times = dict(pricing.layer_times(net, config.device, 32,
                                     ParallelStrategy.DATA,
                                     config.n_devices))
    times["fc1"] = (float("nan"), times["fc1"][1])
    monkeypatch.setattr(pricing, "layer_times", lambda *args: times)
    with pytest.raises(ValueError, match=r"op fwd:fc1: .*NaN"):
        build_iteration_ops(plan, config)


def test_footprints_are_memoised_per_network_version():
    net = small_net()
    pricing.clear_caches()
    for batch in (32, 64, 32):
        assert (pricing.training_footprint(net, batch)
                == net.training_footprint_bytes(batch))
        assert (pricing.inference_footprint(net, batch)
                == net.inference_footprint_bytes(batch))
    before = pricing.training_footprint(net, 32)
    net.add_layer(Layer(name="act", kind=LayerKind.ACT, out_elems=4096,
                        stream_elems=64), inputs=["fc2"])
    after = pricing.training_footprint(net, 32)
    assert after == net.training_footprint_bytes(32) > before
    assert (pricing.inference_footprint(net, 32)
            == net.inference_footprint_bytes(32))
