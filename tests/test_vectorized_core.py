"""Full-result golden of the simulator core.

``tests/golden/core_results.json`` holds the canonical
``SimulationResult.to_dict()`` of every cell below: the paper's full
evaluation matrix (6 designs x 8 workloads x data/model parallelism at
batch 512) plus inference, pipeline (1F1B and GPipe), serving, cluster
and prefetch-policy cells.  Cells are keyed ``design/network/strategy``
for the training grid and ``mode/...`` otherwise.

Each test holds its cells to the snapshot exactly, not within a float
tolerance: the result's JSON must be byte-identical to the committed
one, and the committed dict must decode through
``SimulationResult.from_dict`` to a result equal to the fresh one.
``pytest --update-golden`` rewrites the snapshot.

Every training, inference and pipeline cell is also re-lowered and its
golden ``iteration_time`` and ``prefetch`` stats recomputed from the
timeline alone, which pins ``iteration_timeline()`` (the trace export)
to the run ``simulate()`` measured.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import Callable
from pathlib import Path

import pytest

from repro.cluster.simulator import simulate_cluster
from repro.core import pricing
from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import ExecutionMode, SimulationResult
from repro.core.simulator import _lower, simulate
from repro.dnn.registry import BENCHMARK_NAMES
from repro.serving.server import simulate_serving
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import collect_prefetch_stats

GOLDEN_NAME = "core_results"
GOLDEN_PATH = Path(__file__).parent / "golden" / f"{GOLDEN_NAME}.json"
PREFETCH_POLICIES = ("next-op", "stride", "cost-model", "clairvoyant")
TRAINING_STRATEGIES = (ParallelStrategy.DATA, ParallelStrategy.MODEL)


def _training(design: str, network: str,
              strategy: ParallelStrategy) -> tuple:
    return (design_point(design), network, 512, strategy,
            ExecutionMode.TRAINING)


def _inference(design: str) -> tuple:
    return (design_point(design), "ResNet", 64, ParallelStrategy.DATA,
            ExecutionMode.INFERENCE)


def _pipeline(design: str, network: str, schedule: str) -> tuple:
    config = dataclasses.replace(design_point(design), pipeline_stages=4,
                                 pipeline_schedule=schedule)
    return (config, network, 256, ParallelStrategy.PIPELINE,
            ExecutionMode.TRAINING)


def _prefetch(policy: str) -> tuple:
    config = dataclasses.replace(design_point("MC-DLA(L)"),
                                 prefetch_policy=policy)
    return (config, "GoogLeNet", 128, ParallelStrategy.DATA,
            ExecutionMode.TRAINING)


#: Snapshot key -> thunk producing the ``simulate()`` arguments of
#: every cell that is one lowered iteration.
LOWERED: dict[str, Callable[[], tuple]] = {
    **{f"{design}/{network}/{strategy.value}":
       functools.partial(_training, design, network, strategy)
       for design in DESIGN_ORDER for network in BENCHMARK_NAMES
       for strategy in TRAINING_STRATEGIES},
    **{f"inference/{design}/ResNet": functools.partial(_inference, design)
       for design in ("DC-DLA", "MC-DLA(B)")},
    "pipeline/1f1b/MC-DLA(B)/VGG-E":
        functools.partial(_pipeline, "MC-DLA(B)", "VGG-E", "1f1b"),
    "pipeline/gpipe/HC-DLA/BERT-Large":
        functools.partial(_pipeline, "HC-DLA", "BERT-Large", "gpipe"),
    **{f"prefetch/{policy}/MC-DLA(L)/GoogLeNet":
       functools.partial(_prefetch, policy)
       for policy in PREFETCH_POLICIES},
}


def _simulated(lowered: Callable[[], tuple]) -> SimulationResult:
    return simulate(*lowered())


#: Snapshot key -> thunk producing that cell's result.
CELLS: dict[str, Callable[[], SimulationResult]] = {
    **{key: functools.partial(_simulated, args)
       for key, args in LOWERED.items()},
    "serving/MC-DLA(B)/ResNet": lambda: simulate_serving(
        design_point("MC-DLA(B)"), "ResNet", rate=200.0, n_requests=64,
        seed=7, max_batch=16),
    "cluster/MC-DLA(B)/fifo": lambda: simulate_cluster(
        design_point("MC-DLA(B)"), policy="fifo", n_jobs=8, seed=7),
}


@functools.cache
def result_of(key: str) -> SimulationResult:
    return CELLS[key]()


@functools.cache
def snapshot() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture
def check(golden):
    """Assert cells match the snapshot (no-op under --update-golden,
    where :class:`TestSnapshot` rewrites the file instead)."""

    def run(*keys: str) -> None:
        if golden.update:
            return
        for key in keys:
            actual = result_of(key)
            expected = snapshot()[key]
            assert (json.dumps(actual.to_dict(), sort_keys=True)
                    == json.dumps(expected, sort_keys=True)), key
            assert SimulationResult.from_dict(expected) == actual, key

    return run


class TestEvaluationMatrix:
    """The full 6-design x 8-workload x 2-strategy paper grid."""

    @pytest.mark.parametrize("design", DESIGN_ORDER)
    @pytest.mark.parametrize("network", BENCHMARK_NAMES)
    def test_training_grid_cell(self, check, design, network):
        check(*(f"{design}/{network}/{strategy.value}"
                for strategy in TRAINING_STRATEGIES))

    @pytest.mark.parametrize("design", ("DC-DLA", "MC-DLA(B)"))
    def test_inference_cells(self, check, design):
        check(f"inference/{design}/ResNet")


class TestSubsystems:
    def test_pipeline_mode(self, check):
        check("pipeline/1f1b/MC-DLA(B)/VGG-E")

    def test_pipeline_gpipe_schedule(self, check):
        check("pipeline/gpipe/HC-DLA/BERT-Large")

    def test_serving_mode(self, check):
        check("serving/MC-DLA(B)/ResNet")

    def test_cluster_mode(self, check):
        check("cluster/MC-DLA(B)/fifo")

    @pytest.mark.parametrize("policy", PREFETCH_POLICIES)
    def test_prefetch_policies(self, check, policy):
        check(f"prefetch/{policy}/MC-DLA(L)/GoogLeNet")


class TestTimelineEquivalence:
    """The timeline the lowering driver returns is the one its result
    measured: the golden ``iteration_time`` and ``prefetch`` stats are
    recomputed from it alone."""

    @pytest.mark.parametrize("key", sorted(LOWERED))
    def test_timeline_reproduces_golden(self, golden, key):
        if golden.update:
            return
        expected = snapshot()[key]
        _, timeline = _lower(*LOWERED[key]())
        assert timeline.makespan == expected["iteration_time"]
        prefetch = expected["prefetch"]
        stats = collect_prefetch_stats(timeline, prefetch["policy"],
                                       evictions=prefetch["evictions"])
        assert (json.dumps(stats.to_dict(), sort_keys=True)
                == json.dumps(prefetch, sort_keys=True))


class TestSnapshot:
    def test_snapshot_covers_every_cell(self, golden):
        golden.check(GOLDEN_NAME,
                     {key: result_of(key).to_dict() for key in CELLS})


class TestDesignPointMemo:
    def test_vectorized_mode_shares_design_builds(self):
        pricing.clear_caches()
        a = design_point("DC-DLA")
        b = design_point("DC-DLA")
        assert a is b
        # Keyword overrides always rebuild (never memoized).
        c = design_point("DC-DLA", n_devices=4)
        assert c is not a and c.n_devices == 4
        pricing.clear_caches()
