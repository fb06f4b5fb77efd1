"""The fault-injection engine: model, lowering, recovery, campaigns.

The acceptance property: the null fault model is provably inert --
``fault_model="none"`` configs produce results byte-identical to the
pre-fault code path (frozen-dataclass ``to_dict`` equality compares
every float exactly), across all six designs and every execution mode.
Seeded fault runs are deterministic and snapshot into
``tests/golden/faults.json``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.__main__ import main as repro_main
from repro.campaign import fault_grid, grid
from repro.campaign.cli import _CSV_FIELDS
from repro.campaign.cli import main as campaign_cli
from repro.cluster.jobs import JobKind, JobSpec
from repro.cluster.oracle import CostOracle
from repro.cluster.simulator import ClusterSimulator, simulate_cluster
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import FaultStats, SimulationResult
from repro.core.simulator import iteration_timeline, simulate
from repro.core.trace import cluster_chrome_trace
from repro.experiments.faults_comparison import (
    MODES, comparison_points, format_fault_comparison,
    run_fault_comparison, scalars_json)
from repro.faults import (FAULT_MODEL_ORDER, FaultModel,
                          active_fault_model, degraded_config,
                          fault_model, healthy_config)
from repro.serving import (BatchPolicy, ServingLedger, compute_stats,
                           simulate_serving)
from repro.training.parallel import ParallelStrategy


def faulted(design: str, model: str):
    return dataclasses.replace(design_point(design), fault_model=model)


class TestFaultModel:
    def test_registry_covers_order(self):
        for name in FAULT_MODEL_ORDER:
            assert fault_model(name).name == name

    def test_unknown_model_raises_with_known_list(self):
        with pytest.raises(KeyError, match="flaky-link"):
            fault_model("meteor-strike")

    def test_null_model_is_null(self):
        null = FaultModel()
        assert null.is_null
        assert null.bandwidth_multiplier == 1.0
        assert null.compute_multiplier == 1.0
        assert not null.flaps

    def test_every_preset_except_none_is_active(self):
        for name in FAULT_MODEL_ORDER:
            assert fault_model(name).is_null == (name == "none")

    def test_flap_windows_deterministic_and_disjoint(self):
        model = fault_model("flaky-link")
        windows = [model.flap_window(k) for k in range(1, 21)]
        assert windows == [model.flap_window(k) for k in range(1, 21)]
        for k, (start, end) in enumerate(windows, start=1):
            assert k * model.flap_period <= start
            assert end <= (k + 1) * model.flap_period
            assert end - start == pytest.approx(model.flap_duration)
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert end < start

    def test_in_flap_matches_windows(self):
        model = fault_model("flaky-link")
        start, end = model.flap_window(3)
        midpoint = 0.5 * (start + end)
        assert model.in_flap(midpoint)
        assert not model.in_flap(start - 1e-6)
        assert not model.in_flap(end + 1e-6)

    def test_flap_duration_bound_enforced(self):
        with pytest.raises(ValueError, match="0.75"):
            FaultModel(name="x", flap_period=10.0, flap_duration=9.0,
                       link_degradation=0.5)

    def test_bandwidth_multiplier_blends_duty(self):
        model = FaultModel(name="x", flap_period=10.0,
                           flap_duration=5.0, link_degradation=0.5)
        # 50% duty at half bandwidth -> 75% mean bandwidth.
        assert model.bandwidth_multiplier == pytest.approx(0.75)
        assert model.standing_multiplier == 1.0

    def test_standing_derating(self):
        model = fault_model("degraded-link")
        assert model.standing_multiplier == pytest.approx(0.5)
        assert model.bandwidth_multiplier == pytest.approx(0.5)


class TestInertness:
    """The null model must be byte-invisible everywhere."""

    @pytest.mark.parametrize("design", DESIGN_ORDER)
    @pytest.mark.parametrize("network", ("AlexNet", "RNN-GEMV"))
    def test_training_grid_byte_identical(self, design, network):
        base = simulate(design_point(design), network, 256)
        none = simulate(faulted(design, "none"), network, 256)
        assert none.faults is None
        assert none.to_dict() == base.to_dict()

    def test_serving_byte_identical(self):
        knobs = dict(rate=400.0, n_requests=64, seed=0, slo=0.05)
        base = simulate_serving(design_point("MC-DLA(B)"), "GPT2",
                                **knobs)
        none = simulate_serving(faulted("MC-DLA(B)", "none"), "GPT2",
                                **knobs)
        assert none.faults is None
        assert none.to_dict() == base.to_dict()

    def test_cluster_byte_identical(self):
        base = simulate_cluster(design_point("MC-DLA(B)"), n_jobs=6,
                                seed=0)
        none = simulate_cluster(faulted("MC-DLA(B)", "none"), n_jobs=6,
                                seed=0)
        assert none.faults is None
        assert none.to_dict() == base.to_dict()

    def test_active_fault_model_none_for_null(self):
        assert active_fault_model(design_point("DC-DLA")) is None
        assert active_fault_model(faulted("DC-DLA", "none")) is None
        assert active_fault_model(
            faulted("DC-DLA", "storm")).name == "storm"

    def test_unknown_fault_model_rejected_on_config(self):
        with pytest.raises(ValueError, match="fault model"):
            faulted("DC-DLA", "meteor-strike")


class TestLowering:
    def test_degraded_config_scales_fabric(self):
        config = faulted("MC-DLA(B)", "degraded-link")
        degraded = degraded_config(config)
        assert degraded.fault_model == "none"
        assert degraded.vmem.channel.peak_bw == pytest.approx(
            0.5 * config.vmem.channel.peak_bw)

    def test_degraded_config_slows_straggler_gang(self):
        config = faulted("DC-DLA(O)", "straggler")
        model = fault_model("straggler")
        degraded = degraded_config(config)
        assert degraded.device.pe_array.frequency == pytest.approx(
            config.device.pe_array.frequency
            / model.compute_multiplier)

    def test_healthy_config_strips_model(self):
        config = faulted("MC-DLA(B)", "storm")
        healthy = healthy_config(config)
        assert healthy.fault_model == "none"
        assert healthy.vmem.channel.peak_bw \
            == design_point("MC-DLA(B)").vmem.channel.peak_bw


class TestTrainingFaults:
    def test_storm_slows_and_reports(self):
        result = simulate(faulted("MC-DLA(B)", "storm"), "VGG-E", 512)
        healthy = simulate(design_point("MC-DLA(B)"), "VGG-E", 512)
        stats = result.faults
        assert stats is not None and stats.model == "storm"
        assert result.iteration_time > healthy.iteration_time
        assert stats.slowdown == pytest.approx(
            result.iteration_time / healthy.iteration_time)
        assert stats.availability == pytest.approx(1 / stats.slowdown)
        assert stats.injected_events > 0

    def test_deterministic(self):
        a = simulate(faulted("MC-DLA(S)", "flaky-link"), "AlexNet", 256)
        b = simulate(faulted("MC-DLA(S)", "flaky-link"), "AlexNet", 256)
        assert a.to_dict() == b.to_dict()

    def test_link_faults_leave_compute_untouched(self):
        """A degraded fabric stretches sync and migration but cannot
        slow the PE array itself (only ``straggler`` does that)."""
        healthy = simulate(design_point("MC-DLA(B)"), "AlexNet", 256)
        for model in ("flaky-link", "degraded-link"):
            result = simulate(faulted("MC-DLA(B)", model),
                              "AlexNet", 256)
            assert result.breakdown.compute == pytest.approx(
                healthy.breakdown.compute)
            assert result.iteration_time >= healthy.iteration_time

    @pytest.mark.parametrize("model", FAULT_MODEL_ORDER)
    def test_trace_timeline_is_the_measured_one(self, model):
        """``iteration_timeline`` exports the degraded leg that
        ``simulate()`` reports, not the healthy twin."""
        config = faulted("MC-DLA(B)", model)
        timeline = iteration_timeline(config, "VGG-E", 512)
        assert timeline.makespan \
            == simulate(config, "VGG-E", 512).iteration_time

    def test_fault_stats_round_trip(self):
        result = simulate(faulted("MC-DLA(B)", "storm"), "AlexNet", 256)
        restored = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert restored.faults == result.faults
        assert restored == result

    def test_fault_stats_validation(self):
        with pytest.raises(ValueError, match="non-null model"):
            FaultStats(model="none", injected_events=0,
                       degraded_seconds=0.0, slowdown=1.0, retries=0,
                       shed_requests=0, timed_out_requests=0,
                       recovery_bytes=0, availability=1.0)
        with pytest.raises(ValueError, match="slowdown"):
            FaultStats(model="storm", injected_events=0,
                       degraded_seconds=0.0, slowdown=0.0, retries=0,
                       shed_requests=0, timed_out_requests=0,
                       recovery_bytes=0, availability=1.0)


class TestServingFaults:
    def test_storm_sheds_and_times_out(self):
        result = simulate_serving(
            faulted("MC-DLA(B)", "storm"), "GPT2",
            batcher="continuous", rate=2000.0, n_requests=128,
            seed=0, slo=0.02, max_batch=8)
        stats = result.faults
        assert stats is not None
        assert stats.shed_requests + stats.timed_out_requests > 0
        offered = (result.serving.n_requests + stats.shed_requests
                   + stats.timed_out_requests)
        assert offered == 128
        assert stats.availability == pytest.approx(
            result.serving.n_requests / offered)

    def test_deterministic(self):
        knobs = dict(rate=800.0, n_requests=64, seed=3, slo=0.05)
        a = simulate_serving(faulted("MC-DLA(B)", "storm"), "GPT2",
                             **knobs)
        b = simulate_serving(faulted("MC-DLA(B)", "storm"), "GPT2",
                             **knobs)
        assert a.to_dict() == b.to_dict()

    def test_zero_request_stats_are_zeroed(self):
        """Regression: an all-shed ledger must not divide by zero."""
        ledger = ServingLedger(completed=(), busy=0.0, n_batches=0,
                               work_items=0, n_shed=5)
        stats = compute_stats(
            ledger, arrival="poisson", batcher="dynamic",
            policy=BatchPolicy(max_batch=8, max_wait=0.002),
            slo=0.05, offered_rate=100.0, n_servers=1)
        assert stats.n_requests == 0
        assert stats.throughput == 0.0
        assert stats.latency_p99 == 0.0
        assert stats.slo_attainment == 0.0


#: Explicit node-loss recovery scenario: four long jobs whose
#: reservations exactly fill the pool, so losing a quarter of it must
#: force-evict a tenant (each job stays under the post-loss floor).
def _node_loss_jobs():
    return tuple(JobSpec(jid=j, arrival=0.0, kind=JobKind.TRAINING,
                         network="AlexNet", batch=256,
                         iterations=4000, width=2) for j in range(4))


def _node_loss_pool(config) -> int:
    oracle = CostOracle(design_point(config.name))
    return 4 * oracle.profile(_node_loss_jobs()[0]).pool_bytes


class TestClusterFaults:
    def test_node_loss_evicts_and_retries(self):
        config = faulted("MC-DLA(B)", "node-loss")
        result = simulate_cluster(
            config, jobs=_node_loss_jobs(), fleet_devices=8,
            pool_capacity=_node_loss_pool(config),
            oversubscription=1.0)
        stats = result.faults
        assert stats is not None and stats.model == "node-loss"
        assert stats.injected_events >= 1
        assert stats.retries >= 1
        assert stats.recovery_bytes > 0
        assert stats.slowdown > 1.0
        assert stats.availability < 1.0
        assert result.cluster.preemptions >= stats.retries

    def test_node_loss_deterministic(self):
        config = faulted("MC-DLA(B)", "node-loss")
        kwargs = dict(jobs=_node_loss_jobs(), fleet_devices=8,
                      pool_capacity=_node_loss_pool(config),
                      oversubscription=1.0)
        assert simulate_cluster(config, **kwargs).to_dict() \
            == simulate_cluster(config, **kwargs).to_dict()

    def test_flaky_link_dilates_in_flight_jobs(self):
        result = simulate_cluster(faulted("MC-DLA(B)", "flaky-link"),
                                  n_jobs=6, seed=0,
                                  oversubscription=1.5)
        stats = result.faults
        assert stats is not None
        assert stats.slowdown >= 1.0
        assert stats.degraded_seconds >= 0.0

    def test_fault_event_renders_in_chrome_trace(self):
        config = faulted("MC-DLA(B)", "node-loss")
        sim = ClusterSimulator(config, fleet_devices=8,
                               pool_capacity=_node_loss_pool(config),
                               oversubscription=1.0)
        ledger, _ = sim.run(_node_loss_jobs())
        fault_events = [e for e in ledger.events if e[0] == "fault"]
        assert fault_events and fault_events[0][1] == -1
        trace = json.loads(cluster_chrome_trace(ledger.events))
        instants = [e for e in trace["traceEvents"]
                    if e.get("cat") == "fault"]
        assert len(instants) == len(fault_events)
        assert all(e["ph"] == "i" for e in instants)


class TestCampaignAxis:
    BASE = grid(("DC-DLA", "MC-DLA(B)"), ("AlexNet",), (256,),
                (ParallelStrategy.DATA,))

    def test_fault_grid_labels_and_replacements(self):
        points = fault_grid(self.BASE, ("none", "storm"))
        assert len(points) == 2 * len(self.BASE)
        labels = {p.label for p in points}
        assert "DC-DLA|none" in labels and "MC-DLA(B)|storm" in labels
        for point in points:
            models = [v for k, v in point.replacements
                      if k == "fault_model"]
            assert len(models) == 1
            assert point.label.endswith(f"|{models[0]}")

    def test_fault_grid_overrides_existing_model(self):
        seeded = dataclasses.replace(
            self.BASE[0], replacements=(("fault_model", "storm"),))
        (point,) = fault_grid((seeded,), ("flaky-link",))
        assert dict(point.replacements)["fault_model"] == "flaky-link"

    def test_fault_grid_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            fault_grid(self.BASE, ("chaos",))

    def test_csv_prefix_fields_stable(self):
        """CI cuts columns 1-15; fault columns must append later."""
        assert _CSV_FIELDS[:15] == (
            "design", "network", "batch", "strategy", "n_devices",
            "iteration_time", "throughput", "compute", "sync", "vmem",
            "offload_bytes_per_device", "sync_bytes",
            "host_traffic_bytes_per_device", "fits_in_device_memory",
            "bubble_fraction")
        assert _CSV_FIELDS[-1] == "cached"
        assert "fault_model" in _CSV_FIELDS

    def test_cli_fault_axis_csv(self, tmp_path):
        out = tmp_path / "faults.csv"
        code = campaign_cli([
            "--designs", "DC-DLA", "--networks", "AlexNet",
            "--batches", "256", "--strategies", "data",
            "--fault-models", "none,storm", "--no-cache",
            "--format", "csv", "-o", str(out), "-q"])
        assert code == 0
        header, *rows = out.read_text().strip().split("\n")
        assert header.split(",") == list(_CSV_FIELDS)
        assert len(rows) == 2
        by_model = {r.split(",")[0]: r for r in rows}
        assert by_model["DC-DLA|storm"].split(",")[
            _CSV_FIELDS.index("fault_model")] == "storm"
        assert by_model["DC-DLA|none"].split(",")[
            _CSV_FIELDS.index("fault_model")] == ""

    def test_cli_rejects_unknown_fault_model(self, capsys):
        code = campaign_cli(["--fault-models", "chaos", "--no-cache"])
        assert code == 2
        assert "unknown fault model" in capsys.readouterr().err


@pytest.fixture(scope="module")
def quick_study():
    return run_fault_comparison(modes=("training",),
                                training_network="AlexNet")


class TestFaultsStudy:
    def test_covers_every_design_and_model(self, quick_study):
        for design in DESIGN_ORDER:
            for model in FAULT_MODEL_ORDER:
                result = quick_study.at("training", design, model)
                assert result.system == design

    def test_full_grid_shape(self):
        points = comparison_points()
        assert len(points) == (len(MODES) * len(DESIGN_ORDER)
                               * len(FAULT_MODEL_ORDER))
        assert len({p.label for p in points}) == len(points)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            comparison_points(modes=("training", "chaos"))

    def test_none_is_never_slower(self, quick_study):
        """Fault injection can only take performance away."""
        for design in DESIGN_ORDER:
            baseline = quick_study.at("training", design,
                                      "none").iteration_time
            for model in FAULT_MODEL_ORDER:
                result = quick_study.at("training", design, model)
                assert result.iteration_time >= baseline - 1e-12
                if result.faults is not None:
                    assert result.faults.slowdown >= 1.0 - 1e-9

    def test_formatting_has_tables_and_headlines(self, quick_study):
        text = format_fault_comparison(quick_study)
        assert "Fault models x designs: training" in text
        assert "worst storm slowdown (training)" in text
        for model in FAULT_MODEL_ORDER:
            assert model in text

    def test_scalars_json_is_deterministic(self, quick_study):
        again = run_fault_comparison(modes=("training",),
                                     training_network="AlexNet")
        assert scalars_json(quick_study) == scalars_json(again)

    def test_golden_snapshot(self, quick_study, golden):
        golden.check("faults", quick_study.scalars())


class TestFaultsCli:
    def test_quick_json_output(self, tmp_path):
        out = tmp_path / "study.json"
        code = repro_main(["faults", "--quick", "--format", "json",
                           "-o", str(out)])
        assert code == 0
        scalars = json.loads(out.read_text())
        assert any(key.endswith("/slowdown") for key in scalars)

    def test_rejects_unknown_model(self, capsys):
        code = repro_main(["faults", "--fault-models", "chaos"])
        assert code == 2
        assert "unknown fault model" in capsys.readouterr().err
