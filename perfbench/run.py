"""The repository benchmark: host time of the simulator's workloads.

    python3 perfbench/run.py --workload grid-sweep --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout.  Each measurement is a fresh
``python3 perfbench/workload.py`` process (one process, ``jobs=1``,
cold memos), repeated until ``--seconds`` have passed, with a
different ``PYTHONHASHSEED`` each time.  Timings are the median over
processes.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (interpreter
start to first cell), ``wall_s`` (the timed section), the per-cell
host latency ``cell_p50_ms`` / ``cell_p90_ms``, ``peak_rss_mb`` and
``failed_frac``.  ``--trace 1`` alternates untraced and traced
processes and prints the per-layer metrics of ``tracer.py``, a share
table of the timed section, the coverage check and the tracing
overhead.

Every process checks its own outputs (see ``workload.py``); this
driver also requires one result digest across all processes.  The
last stdout line is one JSON object ``{correct, attempted, failed,
metrics}``; the exit code is 1 when any check fails and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())

#: Medians over processes; the cell percentiles are taken over every
#: cell of every process of the run (nearest rank).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PERCENTILES = (("cell_p50_ms", 0.50), ("cell_p90_ms", 0.90))

#: Fewest processes of each kind a run measures, however short
#: ``--seconds`` is.
MIN_RUNS = 3
#: No new process starts after this many seconds (the run must end
#: within 180 s; one process takes a few seconds).
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 50.0

#: Traced-run gate: layer self times must cover this share of the
#: traced timed section (the rest is the benchmark's own glue).
MIN_COVERAGE = 0.95


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if name.endswith("_per_op"):
        return "us/op"
    if name.startswith("campaign.cache.bytes"):
        return "B"
    return "count"


def spawn(workload: str, seed: int, traced: bool, run_index: int) -> dict:
    """Run one measurement process; return its JSON line."""
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED=str(run_index))
    command += ["--t0", repr(time.time())]
    proc = subprocess.run(command, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} process exited {proc.returncode}:\n"
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values, ``q`` in (0, 1]."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def print_end_to_end(runs: list[dict]) -> dict:
    metrics = {}
    for name, unit in END_TO_END:
        values = [run[name] for run in runs]
        metrics[name] = {"value": statistics.median(values),
                         "unit": unit}
        print(f"  {name:<13} {metrics[name]['value']:>10.4f} {unit:<3}"
              f"  median of {len(values)}, range "
              f"{min(values):.4f}-{max(values):.4f}")
    cells = sorted(ms for run in runs for ms in run["cell_ms"])
    for name, q in PERCENTILES:
        metrics[name] = {"value": percentile(cells, q), "unit": "ms"}
        print(f"  {name:<13} {metrics[name]['value']:>10.4f} ms "
              f"  {len(cells)} cells, {len(cells) - math.ceil(q * len(cells))}"
              f" beyond")
    print(f"  cell latency: {len(runs[0]['cell_ms'])} simulated cells per "
          f"process, pooled over {len(runs)} processes")
    print(f"  wall_s and cell latencies are host seconds at the reference"
          f" speed (speed.py); raw wall_s {median(runs, 'wall_raw_s'):.4f}"
          f" s at a median speed of {median(runs, 'speed'):.3f} x "
          f"reference")
    return metrics


def layer_checks(workload: str, layers: dict, wall_self: dict,
                 self_total: float):
    """(gates, intents): ``(label, holds, detail)`` triples.

    Gates are structural facts of the workloads that no optimisation
    of a layer changes.  Intents are the workloads' design as defined
    (which layer dominates): reported, not gated, because optimising
    the dominant layer is expected to end them.
    """
    gates = [(f"coverage >= {MIN_COVERAGE:.0%}",
              layers["trace.coverage"] >= MIN_COVERAGE,
              f"layer self times cover {layers['trace.coverage']:.1%} "
              f"of the timed section")]
    cache = [name for name in SPEC["layers"]
             if name.startswith("campaign.cache.")
             and name != "campaign.cache.hit_ratio"]
    if workload == "serve-fleet":
        gates.append(("campaign.cache.* nonzero",
                      all(layers[name] > 0 for name in cache),
                      "the cache write and read paths ran"))
    else:
        gates.append(("campaign.cache.* zero",
                      all(layers[name] == 0 for name in cache),
                      "no cache on this workload"))
    intents = []
    search = layers["pipeline.search_s"]
    if workload == "claims-cold":
        timed = {k: v for k, v in wall_self.items() if k != "unattributed"}
        top = max(timed, key=timed.get)
        intents.append(("pipeline.search_s is the largest layer",
                        top == "pipeline.search_s",
                        f"largest is {top}, "
                        f"{timed[top] / self_total:.1%}"))
    else:
        gates.append(("pipeline.search_s about 0",
                      layers["pipeline.makespan_evals"] == 0,
                      f"no zb-auto trial; {search:.4f} s, "
                      f"{search / self_total:.2%} of the timed section"))
    if workload == "grid-sweep":
        share = sum(wall_self.get(name, 0.0) for name in (
            "core.emit_s", "core.schedule_s", "core.stats_s")) \
            / self_total
        intents.append(("core.emit_s + core.schedule_s + core.stats_s "
                        "is the majority", share > 0.5,
                        f"{share:.1%} of the timed section"))
    return gates, intents


def print_layers(plain: list[dict], traced: list[dict],
                 workload: str) -> tuple[dict, bool]:
    """Per-layer medians, share table, coverage and intent checks."""
    layers = {name: statistics.median(run["layers"][name]
                                      for run in traced)
              for name in SPEC["layers"]}
    names = {name for run in traced for name in run["wall_self"]}
    wall_self = {name: statistics.median(run["wall_self"].get(name, 0.0)
                                         for run in traced)
                 for name in names}
    traced_wall = median(traced, "wall_s")
    untraced_wall = median(plain, "wall_s")
    layers["trace.coverage"] = median(traced, "coverage")
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    self_total = sum(wall_self.values())

    print(f"  tracing overhead {layers['trace.overhead_s']:+.4f} s: "
          f"traced wall_s {traced_wall:.4f} s (median of {len(traced)})"
          f" - untraced {untraced_wall:.4f} s (median of {len(plain)})")
    print(f"  {'timed section, self time':<30} {'s':>8} {'share':>7}  "
          f"should move (on)")
    for name, seconds in sorted(wall_self.items(), key=lambda kv: -kv[1]):
        link = SPEC["layers"].get(name)
        moves = (f"{','.join(link['moves'])} ({','.join(link['on'])})"
                 if link else "benchmark glue")
        print(f"  {name:<30} {seconds:>8.4f} "
              f"{seconds / self_total:>7.1%}  {moves}")
    print("  per-layer metrics (set-up and timed section, median):")
    for name, value in layers.items():
        print(f"    {name:<32} {value:>14.6g} {layer_unit(name)}")

    gates, intents = layer_checks(workload, layers, wall_self,
                                  self_total)
    for label, holds, detail in gates:
        print(f"  check {label}: {'PASS' if holds else 'FAIL'} "
              f"({detail})")
    for label, holds, detail in intents:
        print(f"  intent {label}: {'holds' if holds else 'does not hold'}"
              f" ({detail}; reported, not gated)")
    return layers, all(holds for _, holds, _ in gates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM ends a run as Ctrl-C does: subprocess.run then kills and
    # reaps the measuring process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'}"
              f" is missing", file=sys.stderr)
        return 2
    # Byte-compile first, as an installed package would be, so the
    # first process's set-up does not pay for it.
    compileall.compile_dir(ROOT / "src", quiet=1)

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    error = None
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_RUNS and (
            not args.trace or len(traced) >= MIN_RUNS)
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and enough):
            break
        run_traced = bool(args.trace) and len(traced) < len(plain)
        try:
            run = spawn(args.workload, args.seed, run_traced,
                        len(plain) + len(traced))
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            error = str(exc)
            break
        (traced if run_traced else plain).append(run)

    runs = plain + traced
    # A process that died counts as one failed attempt.
    attempted = sum(run["attempted"] for run in runs) + (error is not None)
    failed = sum(run["failed"] for run in runs) + (error is not None)
    digests = {run["digest"] for run in runs}
    checks: dict[str, tuple[bool, str]] = {}
    for run in runs:
        for name, passed, detail in run["checks"]:
            if checks.get(name, (True, ""))[0]:
                checks[name] = (passed, detail)
    correct = error is None and bool(plain) and failed == 0 \
        and len(digests) == 1 and all(p for p, _ in checks.values())

    print(f"perfbench {args.workload} seed={args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced processes in "
          f"{time.monotonic() - start:.1f} s")
    if error is not None:
        print(f"  ERROR {error}")
    metrics = print_end_to_end(plain) if plain else {}
    print(f"  failed_frac   {failed / attempted:.4f}  "
          f"({failed}/{attempted} cells)")
    print(f"  result digest sha256:{' '.join(sorted(digests))} "
          f"({'identical' if len(digests) == 1 else 'DIFFERS'} across "
          f"{len(runs)} processes and PYTHONHASHSEED values)")
    for name, (passed, detail) in checks.items():
        print(f"  check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    for note in runs[0]["notes"] if runs else ():
        print(f"  {note}")
    if args.trace and traced:
        layers, layers_ok = print_layers(plain, traced, args.workload)
        correct &= layers_ok
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    elif args.trace:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
