"""Tests for ``repro.telemetry``: registry, spans, probes, sessions.

The contract under test is the observability layer's core promise:
telemetry is *provably inert* (simulation results are byte-identical
with it on or off, and disabled handles are the shared no-op
singleton), and everything it records is *deterministic* (snapshots
JSON-round-trip exactly, the campaign JSONL stream is identical run
to run, wall-clock lives only in the manifest).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import telemetry
from repro.core import pricing
from repro.core.design_points import design_point
from repro.core.simulator import simulate
from repro.telemetry.manifest import (WALL_CLOCK_FIELDS, build_manifest,
                                      config_fingerprint, write_manifest)
from repro.telemetry.registry import (NOOP, MetricsRegistry,
                                      to_prometheus)
from repro.telemetry.session import (TelemetrySession, artifact_paths,
                                     eta_seconds, summary_text)
from repro.telemetry.spans import (HOST_PID, NOOP_SPAN,
                                   chrome_span_events, span,
                                   span_totals)
from repro.training.parallel import ParallelStrategy


@pytest.fixture
def enabled():
    """Telemetry on for one test, reliably off afterwards."""
    pricing.clear_caches()
    telemetry.enable(fresh=True)
    yield telemetry.metrics_registry()
    telemetry.disable()


# -- registry -------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_x_total", "things", kind="a")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert registry.counter("repro_x_total", kind="a") is c
        g = registry.gauge("repro_depth")
        g.set(7)
        assert g.value == 7
        h = registry.histogram("repro_sizes", buckets=(1, 10, 100))
        for v in (0, 5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == 555

    def test_labels_are_part_of_the_key(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", memo="a")
        b = registry.counter("repro_x_total", memo="b")
        assert a is not b
        a.inc()
        snap = registry.snapshot()
        values = {tuple(e["labels"].items()): e["value"]
                  for e in snap["counters"]}
        assert values == {(("memo", "a"),): 1, (("memo", "b"),): 0}

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("repro_h", buckets=(3, 1, 2))

    def test_snapshot_json_round_trip_exact(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "help a", memo="m").inc(3)
        registry.gauge("repro_g").set(1.25)
        registry.histogram("repro_h", buckets=(1, 2)).observe(1.5)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        rebuilt = MetricsRegistry.from_snapshot(snap)
        assert rebuilt.snapshot() == snap

    def test_merge_adds_counters_and_keeps_max_gauge(self):
        a = MetricsRegistry()
        a.counter("repro_c_total").inc(2)
        a.gauge("repro_g").set(5)
        a.histogram("repro_h", buckets=(1,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("repro_c_total").inc(3)
        b.gauge("repro_g").set(4)
        b.histogram("repro_h", buckets=(1,)).observe(9)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"][0]["value"] == 5
        assert snap["gauges"][0]["value"] == 5
        assert snap["histograms"][0]["counts"] == [1, 1]
        assert snap["histograms"][0]["count"] == 2


# -- the disabled path ----------------------------------------------------


class TestDisabledPath:
    def test_handles_are_the_noop_singleton(self):
        assert telemetry.metrics_registry() is None
        assert telemetry.counter("repro_x_total") is NOOP
        assert telemetry.gauge("repro_g") is NOOP
        assert telemetry.histogram("repro_h") is NOOP
        assert span("anything", k="v") is NOOP_SPAN

    def test_noop_allocates_nothing(self):
        # __slots__ = (): the singleton has no per-instance dict and
        # its methods return None without touching any state.
        assert not hasattr(NOOP, "__dict__")
        assert NOOP.inc() is None
        assert NOOP.inc(5) is None
        assert NOOP.set(1) is None
        assert NOOP.observe(2) is None

    def test_probe_modules_bind_noop_when_disabled(self):
        assert all(h is NOOP for h in pricing._HITS.values())
        assert all(h is NOOP for h in pricing._MISSES.values())
        from repro.core import optable
        assert optable._SCHED_RUNS is NOOP
        assert optable._SCHED_TABLE_OPS is NOOP

    def test_probe_modules_rebind_on_enable(self, enabled):
        assert all(h is not NOOP for h in pricing._HITS.values())
        from repro.core import optable
        assert optable._SCHED_RUNS is not NOOP


# -- inertness ------------------------------------------------------------


class TestInertness:
    """Identical results with telemetry on and off."""

    @pytest.mark.parametrize("network,strategy", [
        ("AlexNet", ParallelStrategy.DATA),
        ("VGG-E", ParallelStrategy.MODEL),
        ("GPT2", ParallelStrategy.PIPELINE),
    ])
    def test_simulate(self, network, strategy):
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        baseline = simulate(config, network, 256, strategy)
        telemetry.enable(fresh=True)
        try:
            pricing.clear_caches()
            observed = simulate(config, network, 256, strategy)
        finally:
            telemetry.disable()
        assert (dataclasses.asdict(baseline)
                == dataclasses.asdict(observed))

    def test_simulate_serving(self):
        from repro.serving.server import simulate_serving
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        baseline = simulate_serving(config, "GPT2", n_requests=64)
        telemetry.enable(fresh=True)
        try:
            pricing.clear_caches()
            observed = simulate_serving(config, "GPT2", n_requests=64)
        finally:
            telemetry.disable()
        assert (dataclasses.asdict(baseline)
                == dataclasses.asdict(observed))

    def test_simulate_cluster(self):
        from repro.cluster.simulator import simulate_cluster
        config = design_point("MC-DLA(B)")
        pricing.clear_caches()
        baseline = simulate_cluster(config, n_jobs=6, seed=3)
        telemetry.enable(fresh=True)
        try:
            pricing.clear_caches()
            observed = simulate_cluster(config, n_jobs=6, seed=3)
        finally:
            telemetry.disable()
        assert (dataclasses.asdict(baseline)
                == dataclasses.asdict(observed))

    def test_figure_output_unchanged(self):
        from repro.experiments.fig9_collectives import (format_fig9,
                                                        run_fig9)
        pricing.clear_caches()
        baseline = format_fig9(run_fig9())
        telemetry.enable(fresh=True)
        try:
            pricing.clear_caches()
            observed = format_fig9(run_fig9())
        finally:
            telemetry.disable()
        assert baseline == observed


# -- probes ---------------------------------------------------------------


class TestProbes:
    def test_pricing_and_schedule_counters_record(self, enabled):
        simulate(design_point("MC-DLA(B)"), "AlexNet", 256,
                 ParallelStrategy.DATA)
        snap = enabled.snapshot()
        totals: dict[str, float] = {}
        for entry in snap["counters"]:
            totals[entry["name"]] = (totals.get(entry["name"], 0)
                                     + entry["value"])
        assert totals["repro_pricing_memo_misses_total"] > 0
        assert totals["repro_schedule_runs_total"] >= 1
        assert totals["repro_schedule_ops_total"] > 0
        hists = {e["name"]: e for e in snap["histograms"]}
        assert hists["repro_schedule_table_ops"]["count"] >= 1

    def test_warm_memos_count_hits(self, enabled):
        config = design_point("MC-DLA(B)")
        simulate(config, "AlexNet", 256, ParallelStrategy.DATA)
        cold = {tuple(sorted(e["labels"].items())): e["value"]
                for e in enabled.snapshot()["counters"]
                if e["name"] == "repro_pricing_memo_hits_total"}
        simulate(config, "AlexNet", 256, ParallelStrategy.DATA)
        warm = {tuple(sorted(e["labels"].items())): e["value"]
                for e in enabled.snapshot()["counters"]
                if e["name"] == "repro_pricing_memo_hits_total"}
        assert sum(warm.values()) > sum(cold.values())

    def test_prefetch_and_cluster_counters_record(self, enabled):
        from repro.cluster.simulator import simulate_cluster
        simulate_cluster(design_point("MC-DLA(B)"), n_jobs=6, seed=3)
        names = {e["name"] for e in enabled.snapshot()["counters"]}
        assert "repro_cluster_jobs_total" in names
        assert "repro_cluster_events_total" in names


# -- spans ----------------------------------------------------------------


class TestSpans:
    def test_nesting_depth_and_totals(self, enabled):
        with span("outer", key="v"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        spans = telemetry.span_recorder().spans
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        assert len(by_name["inner"]) == 2
        assert all(s.depth == 1 for s in by_name["inner"])
        outer = by_name["outer"][0]
        assert outer.depth == 0
        assert outer.args == {"key": "v"}
        assert outer.duration >= 0
        totals = span_totals(spans)
        assert totals["inner"]["count"] == 2
        assert totals["outer"]["count"] == 1

    def test_chrome_span_events_schema(self, enabled):
        with span("phase", mode="x"):
            pass
        events = chrome_span_events(telemetry.span_recorder().spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name",
                                             "thread_name"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        event = slices[0]
        assert event["pid"] == HOST_PID
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"] == {"mode": "x"}

    def test_simulate_records_phase_spans(self, enabled):
        simulate(design_point("MC-DLA(B)"), "AlexNet", 256,
                 ParallelStrategy.DATA)
        names = [s.name for s in telemetry.span_recorder().spans]
        assert {"plan", "price", "emit", "schedule"} <= set(names)


# -- exporters ------------------------------------------------------------


class TestPrometheus:
    def test_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things counted",
                         memo="dma").inc(3)
        registry.histogram("repro_h", buckets=(1, 2)).observe(1.5)
        text = to_prometheus(registry.snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_x_total counter" in lines
        assert "# HELP repro_x_total things counted" in lines
        assert 'repro_x_total{memo="dma"} 3' in lines
        assert 'repro_h_bucket{le="1"} 0' in lines
        assert 'repro_h_bucket{le="2"} 1' in lines
        assert 'repro_h_bucket{le="+Inf"} 1' in lines
        assert "repro_h_sum 1.5" in lines
        assert "repro_h_count 1" in lines

    def test_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", 'a "quoted" help',
                         k='v"w').inc()
        text = to_prometheus(registry.snapshot())
        assert r'# HELP repro_x_total a \"quoted\" help' in text
        assert r'repro_x_total{k="v\"w"} 1' in text


class TestManifest:
    def test_fingerprint_stable_and_sensitive(self):
        config = {"designs": ["DC-DLA"], "batch": 256}
        assert (config_fingerprint(config)
                == config_fingerprint({"batch": 256,
                                       "designs": ["DC-DLA"]}))
        assert (config_fingerprint(config)
                != config_fingerprint({"designs": ["DC-DLA"],
                                       "batch": 512}))

    def test_build_and_write_round_trip(self, tmp_path):
        manifest = build_manifest(
            tool="campaign", argv=["--quick"], config={"a": 1},
            seed=7, phases={"plan": {"count": 1, "seconds": 0.5}},
            wall_seconds=1.25, cells={"total": 4})
        assert manifest["tool"] == "campaign"
        assert manifest["seed"] == 7
        assert manifest["python"]
        assert len(manifest["code_fingerprint"]) == 64
        assert len(manifest["config_fingerprint"]) == 64
        for field in WALL_CLOCK_FIELDS:
            assert field in manifest
        path = tmp_path / "run.manifest.json"
        write_manifest(path, manifest)
        assert json.loads(path.read_text()) == manifest


# -- sessions and CLIs ----------------------------------------------------


class TestSession:
    def test_disabled_session_is_inert(self, tmp_path, capsys):
        session = TelemetrySession(tool="campaign", argv=[],
                                   enabled=False,
                                   output=str(tmp_path / "o.txt"))
        with session:
            session.emit({"event": "cell"})
        assert session.events == []
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == ""

    def test_artifact_paths(self):
        paths = artifact_paths("campaign", "runs/grid.json")
        assert str(paths["jsonl"]) == "runs/grid.telemetry.jsonl"
        assert str(paths["manifest"]) == "runs/grid.manifest.json"
        assert str(paths["prom"]) == "runs/grid.prom"
        assert str(artifact_paths("serve", None)["prom"]) == "serve.prom"

    def test_summary_pairs_hits_with_misses(self):
        registry = MetricsRegistry()
        registry.counter("repro_campaign_cache_hits_total").inc(3)
        registry.counter("repro_campaign_cache_misses_total").inc(1)
        text = summary_text(registry.snapshot(), {})
        assert "campaign_cache" in text
        assert "75.0%" in text

    def test_eta_guards_fully_cached_and_finished_runs(self):
        """Regression: a fully-cached campaign has zero simulated
        cells -- the mean-cell ETA must not divide by zero."""
        assert eta_seconds(0.0, 0, 10) is None
        assert eta_seconds(12.0, 4, 0) is None
        assert eta_seconds(12.0, 4, 3) == pytest.approx(9.0)

    def test_exception_still_flushes_artifacts(self, tmp_path, capsys):
        """Regression: a campaign dying mid-run must still write its
        (truncated) telemetry -- and the exception must propagate."""
        out = tmp_path / "run.json"
        session = TelemetrySession(tool="campaign", argv=["x"],
                                   enabled=True, output=str(out))
        with pytest.raises(ValueError, match="boom"):
            with session:
                session.emit({"event": "cell", "ok": False})
                raise ValueError("boom")
        assert telemetry.metrics_registry() is None
        paths = artifact_paths("campaign", str(out))
        for path in paths.values():
            assert path.exists()
        lines = [json.loads(line) for line in
                 paths["jsonl"].read_text().splitlines()]
        assert lines[1] == {"event": "cell", "ok": False}
        assert lines[-1]["event"] == "end"
        assert lines[-1]["error"] == "ValueError"
        capsys.readouterr()

    def test_clean_exit_records_no_error_key(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        session = TelemetrySession(tool="campaign", argv=[],
                                   enabled=True, output=str(out))
        with session:
            pass
        end = json.loads(artifact_paths("campaign", str(out))["jsonl"]
                         .read_text().splitlines()[-1])
        assert "error" not in end
        capsys.readouterr()

    def test_flush_failure_never_masks_the_run_exception(self,
                                                         tmp_path):
        """A broken output directory must not replace the original
        in-run exception with an IO error..."""
        bad = tmp_path / "no-such-dir" / "run.json"
        session = TelemetrySession(tool="campaign", argv=[],
                                   enabled=True, output=str(bad))
        with pytest.raises(ValueError, match="boom"):
            with session:
                raise ValueError("boom")
        assert telemetry.metrics_registry() is None

    def test_flush_failure_surfaces_on_clean_exit(self, tmp_path):
        """...but on a clean run the flush failure is the story."""
        bad = tmp_path / "no-such-dir" / "run.json"
        session = TelemetrySession(tool="campaign", argv=[],
                                   enabled=True, output=str(bad))
        with pytest.raises(FileNotFoundError):
            with session:
                pass
        assert telemetry.metrics_registry() is None


class TestCampaignCli:
    def _run(self, args):
        from repro.campaign.cli import main
        return main(args)

    def test_telemetry_artifacts(self, tmp_path, capsys):
        out = tmp_path / "quick.txt"
        code = self._run(["--quick", "--telemetry", "--no-cache",
                          "-q", "-o", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry: wrote" in err

        lines = [json.loads(line) for line in
                 (tmp_path / "quick.telemetry.jsonl").read_text()
                 .splitlines()]
        assert lines[0]["event"] == "begin"
        assert lines[0]["tool"] == "campaign"
        cells = [line for line in lines if line["event"] == "cell"]
        assert len(cells) == 4
        assert all(c["ok"] and not c["cached"] for c in cells)
        metrics = [line for line in lines
                   if line["event"] == "metrics"]
        assert len(metrics) == 1
        names = {e["name"] for e in
                 metrics[0]["snapshot"]["counters"]}
        assert "repro_pricing_memo_hits_total" in names
        assert lines[-1]["event"] == "end"
        assert lines[-1]["cells"]["total"] == 4

        manifest = json.loads(
            (tmp_path / "quick.manifest.json").read_text())
        assert manifest["tool"] == "campaign"
        assert manifest["cells"]["simulated"] == 4
        assert "plan" in manifest["phases"]

        prom = (tmp_path / "quick.prom").read_text()
        assert ("# TYPE repro_pricing_memo_hits_total counter"
                in prom)

    def test_cache_summary_always_on(self, tmp_path, capsys):
        args = ["--quick", "--cache-dir", str(tmp_path / "cache"),
                "-q", "-o", str(tmp_path / "out.txt")]
        assert self._run(args) == 0
        assert "0 hits, 4 misses (0% hit rate)" in \
            capsys.readouterr().err
        assert self._run(args) == 0
        assert "4 hits, 0 misses (100% hit rate)" in \
            capsys.readouterr().err

    def test_jsonl_deterministic_run_to_run(self, tmp_path,
                                            monkeypatch, capsys):
        streams, manifests = [], []
        for name in ("first", "second"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code = self._run(["--quick", "--telemetry", "--no-cache",
                              "-q", "-o", "out.txt"])
            assert code == 0
            streams.append(
                (run_dir / "out.telemetry.jsonl").read_bytes())
            manifests.append(json.loads(
                (run_dir / "out.manifest.json").read_text()))
        capsys.readouterr()
        assert streams[0] == streams[1]
        for manifest in manifests:
            for field in WALL_CLOCK_FIELDS:
                manifest.pop(field)
        assert manifests[0] == manifests[1]

    def test_pool_workers_ship_snapshots(self):
        from repro.campaign.points import grid
        from repro.campaign.runner import run_campaign
        points = grid(("DC-DLA", "HC-DLA"), ("AlexNet",),
                      batches=(64, 128))
        pricing.clear_caches()
        telemetry.enable(fresh=True)
        try:
            run_campaign(points, jobs=2).raise_failures()
            snap = telemetry.metrics_registry().snapshot()
        finally:
            telemetry.disable()
        runs = sum(e["value"] for e in snap["counters"]
                   if e["name"] == "repro_schedule_runs_total")
        assert runs == len(points)
        misses = sum(e["value"] for e in snap["counters"]
                     if e["name"] == "repro_pricing_memo_misses_total")
        assert misses > 0


class TestOtherClis:
    def test_cluster_cli_telemetry(self, tmp_path, monkeypatch,
                                   capsys):
        from repro.cluster.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["--quick", "--telemetry"]) == 0
        assert "telemetry: wrote" in capsys.readouterr().err
        snapshot = json.loads(
            (tmp_path / "cluster.telemetry.jsonl").read_text()
            .splitlines()[-2])["snapshot"]
        names = {e["name"] for e in snapshot["counters"]}
        assert "repro_cluster_jobs_total" in names
        manifest = json.loads(
            (tmp_path / "cluster.manifest.json").read_text())
        assert manifest["tool"] == "cluster"
        assert "cluster:run" in manifest["phases"]

    def test_serve_cli_telemetry(self, tmp_path, monkeypatch, capsys):
        from repro.serving.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["--telemetry", "--requests", "64"]) == 0
        capsys.readouterr()
        prom = (tmp_path / "serve.prom").read_text()
        assert "repro_serving_requests_total" in prom
        manifest = json.loads(
            (tmp_path / "serve.manifest.json").read_text())
        assert "serving:batcher" in manifest["phases"]

    def test_trace_cli_requires_network_or_cluster(self, capsys):
        from repro.__main__ import main
        assert main(["trace", "DC-DLA"]) == 2
        assert "network is required" in capsys.readouterr().err


# -- merged and cluster traces --------------------------------------------


#: Host phases every merged campaign-cell trace must carry.
REQUIRED_HOST_SPANS = {"plan", "price", "emit", "schedule",
                       "cache:lookup"}


def check_merged_trace_schema(doc: dict) -> None:
    events = doc["traceEvents"]
    host = [e for e in events if e.get("pid") == HOST_PID]
    meta_names = {e["args"]["name"] for e in host if e["ph"] == "M"}
    assert "host" in meta_names
    host_slices = [e for e in host if e["ph"] == "X"]
    assert REQUIRED_HOST_SPANS <= {e["name"] for e in host_slices}
    for event in host_slices:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert event["tid"] == 0
    sim = [e for e in events if e.get("pid") == 1]
    sim_meta = {e["args"]["name"] for e in sim if e["ph"] == "M"}
    assert {"simulated timeline", "compute", "comm", "dma-out",
            "dma-in"} <= sim_meta
    sim_slices = [e for e in sim if e["ph"] == "X"]
    assert sim_slices, "no simulated engine slices"
    assert any(e["name"].startswith("fwd:") for e in sim_slices)


class TestMergedTrace:
    def test_committed_fixture_schema(self):
        from pathlib import Path
        fixture = (Path(__file__).parent / "golden"
                   / "merged_trace.json")
        check_merged_trace_schema(json.loads(fixture.read_text()))

    def test_live_campaign_cell_trace_schema(self, tmp_path):
        from repro.campaign.cache import ResultCache
        from repro.campaign.points import grid
        from repro.campaign.runner import run_campaign
        from repro.core.simulator import iteration_timeline
        from repro.core.trace import to_chrome_trace
        points = grid(("MC-DLA(B)",), ("AlexNet",), batches=(256,))
        pricing.clear_caches()
        telemetry.enable(fresh=True)
        try:
            cache = ResultCache(str(tmp_path / "cache"))
            run_campaign(points, cache=cache).raise_failures()
            spans = list(telemetry.span_recorder().spans)
        finally:
            telemetry.disable()
        timeline = iteration_timeline(design_point("MC-DLA(B)"),
                                      "AlexNet", 256,
                                      ParallelStrategy.DATA)
        doc = json.loads(to_chrome_trace(timeline, host_spans=spans))
        check_merged_trace_schema(doc)

    def test_trace_cli_telemetry_merges_host_spans(self, tmp_path,
                                                   capsys):
        from repro.__main__ import main
        out = tmp_path / "iter.trace.json"
        code = main(["trace", "MC-DLA(B)", "AlexNet", "--telemetry",
                     "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert not telemetry.enabled()
        doc = json.loads(out.read_text())
        host = {e["name"] for e in doc["traceEvents"]
                if e.get("pid") == HOST_PID and e["ph"] == "X"}
        assert {"plan", "price", "emit", "schedule"} <= host

    def test_trace_cli_telemetry_lowers_the_cell_once(
            self, tmp_path, monkeypatch, capsys):
        """The host rows and the engine rows come from one run."""
        from repro.__main__ import main
        from repro.core import simulator
        calls = []
        plan_iteration = simulator.plan_iteration

        def counting(*args, **kwargs):
            calls.append(args)
            return plan_iteration(*args, **kwargs)

        monkeypatch.setattr(simulator, "plan_iteration", counting)
        assert main(["trace", "MC-DLA(B)", "AlexNet", "--telemetry",
                     "-o", str(tmp_path / "once.trace.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_plain_trace_has_no_host_rows(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "plain.trace.json"
        assert main(["trace", "MC-DLA(B)", "AlexNet",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert all(e["pid"] == 1 for e in doc["traceEvents"])


class TestClusterTrace:
    def _preempting_ledger(self):
        from repro.cluster.jobs import JobKind, JobSpec
        from repro.cluster.simulator import ClusterSimulator
        long_job = JobSpec(jid=0, arrival=0.0, kind=JobKind.TRAINING,
                           network="AlexNet", batch=512,
                           iterations=400, width=8)
        late = JobSpec(jid=1, arrival=1.0, kind=JobKind.TRAINING,
                       network="AlexNet", batch=512, iterations=5,
                       width=8)
        sim = ClusterSimulator(design_point("MC-DLA(B)"),
                               policy="fifo", fleet_devices=8,
                               preempt_after=2.0)
        ledger, _ = sim.run((long_job, late))
        return ledger

    def test_lifecycle_slices(self):
        from repro.core.trace import cluster_chrome_trace
        ledger = self._preempting_ledger()
        assert ledger.preemptions >= 1
        doc = json.loads(cluster_chrome_trace(ledger.events))
        events = doc["traceEvents"]
        rows = {e["tid"] for e in events
                if e.get("cat") == "__metadata"}
        assert rows == {0, 1}
        slices = [e for e in events if e["ph"] == "X"]
        cats = {e["cat"] for e in slices}
        assert {"queued", "running", "preempted"} <= cats
        for event in slices:
            assert event["dur"] >= 0
            assert event["args"]["jid"] == event["tid"]

    def test_unknown_event_kind_rejected(self):
        from repro.core.trace import cluster_chrome_trace
        with pytest.raises(ValueError, match="unknown lifecycle"):
            cluster_chrome_trace([("arrive", 1, 0.0),
                                  ("warp", 1, 1.0)])

    def test_trace_cli_cluster_mode(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "cluster.trace.json"
        code = main(["trace", "MC-DLA(B)", "--cluster",
                     "--cluster-jobs", "8", "-o", str(out)])
        assert code == 0
        assert "lifecycle events" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert {"queued", "running"} <= cats


class TestBenchCli:
    def test_bench_telemetry_artifacts(self, tmp_path, monkeypatch,
                                       capsys):
        import shutil
        from repro.bench import bench_path, main
        shutil.copy(bench_path("cluster"),
                    tmp_path / "BENCH_cluster.json")
        monkeypatch.chdir(tmp_path)
        # The regression verdict may legitimately flag the probes-on
        # run (the gate is telemetry-off); only the artifacts matter.
        code = main(["--quick", "--suites", "cluster", "--telemetry",
                     "--root", str(tmp_path)])
        assert code in (0, 1)
        capsys.readouterr()
        assert (tmp_path / "bench.telemetry.jsonl").exists()
        manifest = json.loads(
            (tmp_path / "bench.manifest.json").read_text())
        assert manifest["tool"] == "bench"
        prom = (tmp_path / "bench.prom").read_text()
        assert "repro_cluster_jobs_total" in prom
