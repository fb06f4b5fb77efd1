"""One workload in one fresh process: ``run.py`` spawns this file.

    python3 perfbench/workload.py --workload grid-sweep --seed 1 \
        --t0 <time.time() at spawn> [--trace]

Prints one JSON line: set-up seconds, the timed section's seconds and
every simulated cell's latency (both speed-normalised, see
``speed.py``), peak RSS, the correctness checks and a SHA-256 digest
of the canonical result JSON.  With ``--trace`` the public functions
listed in ``tracer.py`` are wrapped and the line also carries
per-layer self times and counters; without it, the run ends by
proving that no wrapper was installed.

The program only ever receives the generated points; ``--seed`` is
consumed here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as layer_tracing  # noqa: E402  (sibling modules)
from speed import SpeedMeter  # noqa: E402

SPEC = json.loads((Path(__file__).parent / "workloads.json").read_text())

GRID_BATCHES = (128, 256, 512, 1024, 2048)
SERVING_NETWORKS = ("GPT2", "BERT-Large", "VGG-E")
SERVING_RATES = (100.0, 400.0, 800.0, 1600.0, 3200.0)
#: The cluster grid keeps the program's default job stream: its seed
#: also draws the job mix, and the mix moves the work by up to 2x.
CLUSTER_SEED = 0
PAPER_SPEEDUP_B512 = 2.8
PAPER_SPEEDUP_ALL_BATCHES = 2.17


@dataclass
class Outcome:
    """What one timed section produced."""

    attempted: int
    failed: int
    digest: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    cache: dict | None = None


def result_digest(outcomes, extra: str = "") -> str:
    """SHA-256 of the successful cells' results in canonical JSON,
    sorted by point key so cell order cannot change it."""
    rows = [([o.point.name, o.point.network, o.point.batch,
              o.point.strategy.value], o.result.to_dict())
            for o in outcomes if o.ok]
    rows.sort(key=lambda row: row[0])
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((text + extra).encode()).hexdigest()


def prebuild(networks) -> None:
    """Build every network and default design point up front (set-up
    work, memoized by the program for the cells)."""
    from repro.core.design_points import all_design_points
    from repro.dnn.registry import build_network

    for name in networks:
        build_network(name)
    all_design_points()


# -- claims-cold -----------------------------------------------------------


def setup_claims(seed: int):
    del seed  # the shipped suite is fixed
    from repro.dnn.registry import WORKLOAD_NAMES
    from repro.scenarios.paper import paper_suite

    prebuild(WORKLOAD_NAMES)
    return paper_suite()


def run_claims(suite, meter: SpeedMeter) -> Outcome:
    from repro.scenarios import runner, verdict

    outcomes = []

    def progress(outcome, done: int, total: int) -> None:
        outcomes.append(outcome)
        meter.progress(outcome, done, total)

    report = runner.run_suite(suite, progress=progress)
    rendered = verdict.render_json(report)
    spec = SPEC["workloads"]["claims-cold"]
    passed = sum(1 for v in report.verdicts if v.status.value == "PASS")
    failed = sum(1 for o in outcomes if not o.ok)
    return Outcome(
        attempted=len(outcomes), failed=failed,
        digest=result_digest(outcomes, rendered),
        checks=[
            ("cells", report.n_cells == spec["cells"] == len(outcomes),
             f"{report.n_cells} cells, expected {spec['cells']}"),
            ("claims-pass", passed == len(report.verdicts)
             == spec["claims"],
             f"{passed}/{len(report.verdicts)} PASS, expected "
             f"{spec['claims']}/{spec['claims']}"),
        ])


# -- grid-sweep ------------------------------------------------------------


def setup_grid(seed: int):
    from repro.campaign.points import grid
    from repro.core.design_points import DESIGN_ORDER
    from repro.dnn.registry import WORKLOAD_NAMES
    from repro.training.parallel import ParallelStrategy

    prebuild(WORKLOAD_NAMES)
    points = list(grid(DESIGN_ORDER, WORKLOAD_NAMES, GRID_BATCHES,
                       (ParallelStrategy.DATA, ParallelStrategy.MODEL)))
    random.Random(seed).shuffle(points)
    return points


def speedup_line(results) -> str:
    """MC-DLA(B) over DC-DLA harmonic-mean speedup beside the paper."""
    from repro.dnn.registry import BENCHMARK_NAMES
    from repro.training.parallel import ParallelStrategy
    from repro.units import harmonic_mean

    def speedups(batches):
        return [results[("DC-DLA", net, b, s)].iteration_time
                / results[("MC-DLA(B)", net, b, s)].iteration_time
                for b in batches for net in BENCHMARK_NAMES
                for s in (ParallelStrategy.DATA, ParallelStrategy.MODEL)]

    at_512 = harmonic_mean(speedups((512,)))
    overall = harmonic_mean(speedups(GRID_BATCHES))
    return (f"model accuracy (informational, not gated; error against "
            f"the paper's reported numbers, no hardware reference): "
            f"MC-DLA(B)/DC-DLA hmean speedup @b512 {at_512:.3f}x vs "
            f"paper {PAPER_SPEEDUP_B512}x "
            f"({at_512 / PAPER_SPEEDUP_B512 - 1:+.1%}); all batches "
            f"{overall:.3f}x vs Fig. 14 {PAPER_SPEEDUP_ALL_BATCHES}x "
            f"({overall / PAPER_SPEEDUP_ALL_BATCHES - 1:+.1%})")


def run_grid(points, meter: SpeedMeter) -> Outcome:
    from repro.campaign import runner

    report = runner.run_campaign(points, jobs=1, progress=meter.progress)
    spec = SPEC["workloads"]["grid-sweep"]
    times = [o.result.iteration_time for o in report.outcomes if o.ok]
    outcome = Outcome(
        attempted=len(points), failed=len(report.failures),
        digest=result_digest(report.outcomes),
        checks=[
            ("cells", len(points) == spec["cells"],
             f"{len(points)} cells, expected {spec['cells']}"),
            ("iteration-times", all(math.isfinite(t) and t > 0
                                    for t in times),
             "every iteration time finite and positive"),
        ])
    if not report.failures:
        outcome.notes.append(speedup_line(report.results))
    return outcome


# -- serve-fleet -----------------------------------------------------------


def setup_serve(seed: int):
    from repro.campaign.points import cluster_grid, serving_grid
    from repro.cluster.policies import POLICY_NAMES
    from repro.core.design_points import DESIGN_ORDER

    prebuild(SERVING_NETWORKS)
    # One trace seed per cell, drawn from the run's seed, in
    # serving_grid's own order.  A trace sets how many distinct batch
    # sizes, and so forward simulations, a cell needs; one seed shared
    # by every cell would move the whole workload together.
    traces = random.Random(seed)
    serving = tuple(
        point for rate in SERVING_RATES for network in SERVING_NETWORKS
        for design in DESIGN_ORDER
        for point in serving_grid((design,), (network,), (rate,),
                                  seed=traces.randrange(2**31)))
    return serving + cluster_grid(DESIGN_ORDER, POLICY_NAMES,
                                  seed=CLUSTER_SEED)


def run_serve(points, meter: SpeedMeter) -> Outcome:
    from repro.campaign import runner
    from repro.campaign.cache import ResultCache

    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench-") as scratch:
        cache = ResultCache(scratch)
        fill = runner.run_campaign(points, jobs=1, cache=cache,
                                   progress=meter.progress)
        replay = runner.run_campaign(points, jobs=1, cache=cache,
                                     progress=meter.progress)
        stored = len(cache)
    spec = SPEC["workloads"]["serve-fleet"]
    outcomes = fill.outcomes + replay.outcomes
    same = replay.results == fill.results
    return Outcome(
        attempted=len(outcomes),
        failed=sum(1 for o in outcomes if not o.ok),
        digest=result_digest(fill.outcomes),
        checks=[
            ("cells", len(points) == spec["cells"] == stored,
             f"{len(points)} cells, {stored} stored, expected "
             f"{spec['cells']}"),
            ("replay-equals-fill",
             replay.cached_count == len(points)
             and fill.cached_count == 0 and same,
             f"{replay.cached_count}/{len(points)} replayed, results "
             f"{'==' if same else '!='} fill"),
        ],
        cache={"hits": cache.hits, "misses": cache.misses,
               "bytes_read": cache.bytes_read,
               "bytes_written": cache.bytes_written})


WORKLOADS = {
    "claims-cold": (setup_claims, run_claims),
    "grid-sweep": (setup_grid, run_grid),
    "serve-fleet": (setup_serve, run_serve),
}


def counter_total(snapshot: dict, name: str) -> float:
    return sum(c["value"] for c in snapshot["counters"]
               if c["name"] == name)


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def self_metric(layer: str) -> str:
    """The per-layer metric that holds ``layer``'s self seconds."""
    if layer == "campaign.runner":
        return "campaign.runner.self_s"
    if layer == "bench.wall":
        return "unattributed"
    return f"{layer}_s"


def layer_metrics(tracer, snapshot: dict, outcome: Outcome,
                  scale: float) -> dict:
    """Per-layer metrics of one traced run: self seconds (set-up and
    timed section, times ``scale``), counters and ratios; plus the
    timed section's self seconds per layer and its coverage."""
    wall = {self_metric(k): v
            for k, v in tracer.self_times("bench.wall").items()}
    setup = {self_metric(k): v
             for k, v in tracer.self_times("bench.setup").items()}
    wall.pop("bench.probe_s", None)
    calls = tracer.calls
    ops = tracer.ops["core.emit"]
    memo_hits = counter_total(snapshot, "repro_pricing_memo_hits_total")
    memo_misses = counter_total(snapshot,
                                "repro_pricing_memo_misses_total")
    lookups = calls["serving.latency_lookups"]
    cache = outcome.cache or dict.fromkeys(
        ("hits", "misses", "bytes_read", "bytes_written"), 0)
    metrics = {name: (wall.get(name, 0.0) + setup.get(name, 0.0)) * scale
               for name in SPEC["layers"] if name.endswith("_s")}
    metrics.update({
        "core.pricing.memo_hit_ratio": ratio(memo_hits,
                                             memo_hits + memo_misses),
        "core.ops": ops,
        "core.emit_us_per_op": ratio(metrics["core.emit_s"] * 1e6, ops),
        "core.schedule_us_per_op": ratio(
            metrics["core.schedule_s"] * 1e6, ops),
        "pipeline.search_calls": calls["pipeline.search"],
        "pipeline.makespan_evals": calls["pipeline.makespan_evals"],
        "serving.requests": counter_total(
            snapshot, "repro_serving_requests_total"),
        "serving.batches": counter_total(
            snapshot, "repro_serving_batches_total"),
        # Every memo miss is one nested simulate() from the server.
        "serving.latency_memo_hit_ratio": ratio(
            lookups - calls["repro.serving.server.simulate"], lookups),
        "cluster.events": counter_total(snapshot,
                                        "repro_cluster_events_total"),
        "campaign.cache.hit_ratio": ratio(
            cache["hits"], cache["hits"] + cache["misses"]),
        "campaign.cache.bytes_written": cache["bytes_written"],
        "campaign.cache.bytes_read": cache["bytes_read"],
    })
    return {"layers": metrics,
            "wall_self": {k: v * scale for k, v in wall.items()},
            "coverage": 1 - wall.get("unattributed", 0.0)
            / sum(wall.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent spawned us")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # The spawn instant on the perf_counter clock.
    spawned = time.perf_counter() - (time.time() - args.t0)
    setup, run = WORKLOADS[args.workload]

    tracer = layer_tracing.LayerTracer() if args.trace else None
    meter = SpeedMeter(tracer)
    if tracer is not None:
        from repro.telemetry.registry import enable_metrics
        registry = enable_metrics()
        tracer.install()

    with tracer.span("bench.setup") if tracer else nullcontext():
        state = setup(args.seed)
    setup_end = time.perf_counter()
    meter.calibrate()
    start = time.perf_counter()
    with tracer.span("bench.wall") if tracer else nullcontext():
        outcome = run(state, meter)
    end = time.perf_counter()
    if tracer is None:
        layer_tracing.assert_untouched()
    else:
        tracer.uninstall()

    cells = meter.cell_seconds
    line = {
        "workload": args.workload,
        "traced": args.trace,
        "setup_s": setup_end - spawned,
        "wall_s": meter.rescale(start, end),
        "wall_raw_s": meter.net(start, end),
        "speed": meter.median_scale,
        "cell_ms": [seconds * 1e3 for seconds in cells],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "checks": outcome.checks,
        "notes": outcome.notes,
    }
    if tracer is not None:
        line.update(layer_metrics(tracer, registry.snapshot(), outcome,
                                  meter.median_scale))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
