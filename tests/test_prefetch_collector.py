"""The prefetch-stats collector against the per-op loop it replaced.

:func:`~repro.vmem.prefetch.collect_prefetch_stats` reads every
structural fact from the timeline's
:class:`~repro.core.optable.ConsumerIndex` and reduces with numpy
gathers.  :func:`reference_prefetch_stats` below is the per-op loop
it replaced, kept as the oracle: it re-derives each op's slot-free
time by replaying the slots, walks every compute op's dependencies,
and prices the DMA/collective overlap with full outer products.  The
two must agree on every :class:`~repro.core.metrics.PrefetchStats`
field to the ``repr`` -- on random multi-channel tables, on the edge
cases a structural index could get wrong, and on real training,
inference, pipeline and fault-degraded timelines under every
prefetch policy.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_points import DESIGN_ORDER, design_point
from repro.core.metrics import ExecutionMode, PrefetchStats
from repro.core.optable import ENGINE_CODE, OpTable, schedule_ops
from repro.core.simulator import _lower
from repro.core.timeline import EngineKind
from repro.training.parallel import ParallelStrategy
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER, collect_prefetch_stats

ENGINES = tuple(EngineKind)
DMA_IN = ENGINE_CODE[EngineKind.DMA_IN]
COMPUTE = ENGINE_CODE[EngineKind.COMPUTE]


def reference_prefetch_stats(timeline, policy: str,
                             evictions: int = 0) -> PrefetchStats:
    """The per-op collector loop, verbatim in its arithmetic."""
    table = timeline.table
    codes, deps, tags = table.codes, table.deps, table.tags
    nbytes, durations = table.nbytes, table.durations
    starts, finishes = timeline.start, timeline.finish
    prev_slot, free = [], {}
    for uid, slot in enumerate(zip(codes, table.channels)):
        prev_slot.append(free.get(slot, 0.0))
        free[slot] = finishes[uid]

    dma_in_idx = [i for i, code in enumerate(codes) if code == DMA_IN]
    prefetch_bytes = sum(nbytes[i] for i in dma_in_idx)
    wasted = sum(nbytes[i] for i in dma_in_idx
                 if tags[i].startswith("waste:"))
    late = jit = early = 0
    n_prefetches = 0
    stall = 0.0
    for i, code in enumerate(codes):
        if code != COMPUTE or not deps[i]:
            continue
        fetches = [d for d in deps[i] if codes[d] == DMA_IN]
        if not fetches:
            continue
        other = max((finishes[d] for d in deps[i]
                     if codes[d] != DMA_IN), default=0.0)
        prev = prev_slot[i]
        unblocked = prev if prev > other else other
        stall += max(0.0, starts[i] - unblocked)
        for d in fetches:
            n_prefetches += 1
            slack = unblocked - finishes[d]
            if slack < 0:
                late += 1
            elif slack <= durations[d]:
                jit += 1
            else:
                early += 1
    hit_rate = 1.0 if n_prefetches == 0 \
        else (n_prefetches - late) / n_prefetches
    return PrefetchStats(
        policy=policy, n_prefetches=n_prefetches,
        prefetch_bytes=prefetch_bytes, wasted_bytes=wasted,
        evictions=evictions, stall_seconds=stall,
        late=late, jit=jit, early=early, hit_rate=hit_rate,
        contended_seconds=reference_overlap(timeline))


def reference_overlap(timeline) -> float:
    """Every DMA x collective pair per channel, zeros included, in
    the channels' first-appearance order among DMAs that span time."""
    table = timeline.table
    engine = np.asarray(table.codes)
    start = np.asarray(timeline.start, dtype=np.float64)
    finish = np.asarray(timeline.finish, dtype=np.float64)
    channel = np.asarray(table.channels)
    span = finish > start
    dma = span & ((engine == DMA_IN)
                  | (engine == ENGINE_CODE[EngineKind.DMA_OUT]))
    comm = span & (engine == ENGINE_CODE[EngineKind.COMM])
    if not dma.any() or not comm.any():
        return 0.0
    dma_ch, comm_ch = channel[dma], channel[comm]
    a0, a1 = start[dma], finish[dma]
    b0, b1 = start[comm], finish[comm]
    _, first = np.unique(dma_ch, return_index=True)
    terms = []
    for ch in dma_ch[np.sort(first)]:
        mine, theirs = dma_ch == ch, comm_ch == ch
        if not theirs.any():
            continue
        pair = (np.minimum.outer(a1[mine], b1[theirs])
                - np.maximum.outer(a0[mine], b0[theirs]))
        terms.append(np.maximum(0.0, pair).ravel())
    if not terms:
        return 0.0
    return float(np.cumsum(np.concatenate(terms))[-1])


def assert_same_stats(timeline, policy="stride", evictions=3) -> None:
    got = collect_prefetch_stats(timeline, policy, evictions=evictions)
    want = reference_prefetch_stats(timeline, policy, evictions)
    for field in dataclasses.fields(PrefetchStats):
        assert (repr(getattr(got, field.name))
                == repr(getattr(want, field.name))), field.name


# -- random multi-channel tables ------------------------------------------


@st.composite
def op_programs(draw):
    """A random op program rich in the collector's edge cases: zero
    durations everywhere, fetch-only compute ops, ``waste:`` fetches,
    several channels."""
    n = draw(st.integers(min_value=0, max_value=40))
    program = []
    for uid in range(n):
        engine = draw(st.sampled_from(ENGINES))
        duration = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)))
        deps = (draw(st.lists(st.integers(0, uid - 1), max_size=4,
                              unique=True)) if uid else [])
        if engine is EngineKind.COMPUTE and deps and draw(st.booleans()):
            # Fetch-only consumers: keep just the DMA-in dependencies.
            deps = [d for d in deps if program[d][0] is EngineKind.DMA_IN]
        waste = engine is EngineKind.DMA_IN and draw(st.booleans())
        channel = draw(st.integers(min_value=0, max_value=2))
        nbytes = draw(st.integers(min_value=0, max_value=1 << 20))
        program.append((engine, duration, deps, channel, nbytes,
                        f"waste:t{uid}" if waste else f"op{uid}"))
    return program


def schedule(program):
    table = OpTable()
    for engine, duration, deps, channel, nbytes, tag in program:
        table.add(engine, duration, deps, tag, nbytes=nbytes,
                  channel=channel)
    return schedule_ops(table)


class TestRandomTables:
    @given(op_programs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_op_loop(self, program):
        assert_same_stats(schedule(program))


# -- the edge cases, pinned -----------------------------------------------


C, IN, OUT, COMM = (EngineKind.COMPUTE, EngineKind.DMA_IN,
                    EngineKind.DMA_OUT, EngineKind.COMM)


class TestEdgeCases:
    def test_fetch_only_consumer_waits_on_its_slot_alone(self):
        """No non-fetch dependency: the default 0.0 must not become
        whatever an empty ``reduceat`` segment would read."""
        timeline = schedule([
            (C, 5.0, [], 0, 0, "a"),
            (IN, 1.0, [], 0, 64, "fetch"),
            (C, 2.0, [1], 0, 0, "b"),
            (IN, 9.0, [], 0, 64, "late-fetch"),
            (C, 1.0, [3], 0, 0, "c"),
        ])
        assert_same_stats(timeline)
        stats = collect_prefetch_stats(timeline, "stride")
        assert stats.n_prefetches == 2
        assert stats.late == 1 and stats.early + stats.jit == 1

    def test_zero_duration_dma_and_comm(self):
        timeline = schedule([
            (C, 1.0, [], 0, 0, "a"),
            (COMM, 0.0, [0], 0, 8, "sync0"),
            (OUT, 0.0, [0], 0, 8, "off0"),
            (IN, 0.0, [2], 0, 8, "pre0"),
            (C, 1.0, [3, 1], 0, 0, "b"),
            (COMM, 2.0, [4], 0, 8, "sync1"),
            (IN, 3.0, [], 0, 8, "pre1"),
            (C, 1.0, [6], 0, 0, "c"),
        ])
        assert_same_stats(timeline)

    def test_channel_order_skips_zero_span_first_dma(self):
        """Channel 1's first DMA spans no time, so channel 2's overlap
        (0.1 s) leads the sum and channel 1's (0.2 s, 0.3 s) follow.
        Ordering channels by their first DMA of any span would add the
        same terms as (0.2 + 0.3) + 0.1, which rounds differently."""
        timeline = schedule([
            (OUT, 0.0, [], 1, 8, "ch1-empty"),
            (OUT, 0.1, [], 2, 8, "ch2-a"),
            (COMM, 0.7, [], 2, 8, "ch2-sync"),
            (OUT, 0.2, [], 1, 8, "ch1-a"),
            (COMM, 1.0, [], 1, 8, "ch1-sync"),
            (IN, 0.3, [], 1, 8, "ch1-b"),
        ])
        # Structurally, channel 1 comes first.
        assert [int(dma[0]) for dma, _ in
                timeline.index.channel_groups] == [0, 1]
        contended = collect_prefetch_stats(timeline, "x").contended_seconds
        assert contended == (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1
        assert_same_stats(timeline)

    def test_stall_sum_runs_in_uid_order(self):
        """Sixteen consumers, each on its own channel, each stalled for
        exactly its fetch's duration: the total must be the sequential
        uid-order sum, which numpy's pairwise ``sum`` does not give."""
        waits = [0.28, 1.7, 1.53, 0.52, 1.0, 0.9, 1.31, 1.58, 0.2, 0.07,
                 1.67, 0.87, 1.53, 0.01, 0.9, 1.45]
        program = []
        for channel, wait in enumerate(waits):
            program += [(IN, wait, [], channel, 8, f"fetch{channel}"),
                        (C, 1.0, [2 * channel], channel, 0,
                         f"use{channel}")]
        timeline = schedule(program)
        sequential = 0.0
        for wait in waits:
            sequential += wait
        stall = collect_prefetch_stats(timeline, "x").stall_seconds
        assert stall == sequential != float(np.sum(waits))
        assert_same_stats(timeline)

    def test_waste_bytes_and_empty_table(self):
        assert_same_stats(schedule([]))
        timeline = schedule([
            (IN, 1.0, [], 0, 100, "waste:x"),
            (IN, 1.0, [], 0, 28, "wfetch:y"),
            (C, 1.0, [1], 0, 0, "fwd:y"),
        ])
        stats = collect_prefetch_stats(timeline, "stride")
        assert (stats.prefetch_bytes, stats.wasted_bytes) == (128, 100)
        assert_same_stats(timeline)


# -- real timelines -------------------------------------------------------


def _cell(design: str, policy: str, **overrides):
    return dataclasses.replace(design_point(design),
                               prefetch_policy=policy, **overrides)


REAL_CELLS = [
    *[(design, policy, "GoogLeNet", 128, strategy,
       ExecutionMode.TRAINING, {})
      for design in DESIGN_ORDER for policy in PREFETCH_POLICY_ORDER
      for strategy in (ParallelStrategy.DATA, ParallelStrategy.MODEL)],
    *[(design, policy, "ResNet", 64, ParallelStrategy.DATA,
       ExecutionMode.INFERENCE, {})
      for design in ("DC-DLA", "MC-DLA(B)") for policy in
      PREFETCH_POLICY_ORDER],
    *[(design, policy, "GPT2", 64, ParallelStrategy.PIPELINE,
       ExecutionMode.TRAINING,
       {"pipeline_stages": 4, "pipeline_schedule": kind})
      for design in ("DC-DLA", "MC-DLA(B)")
      for policy in ("on-demand", "stride")
      for kind in ("1f1b", "gpipe", "zb-h1", "interleaved", "zb-auto")],
    *[(design, "on-demand", "VGG-E", 256, ParallelStrategy.DATA,
       ExecutionMode.TRAINING, {"fault_model": fault})
      for design in ("DC-DLA", "MC-DLA(B)")
      for fault in ("flaky-link", "straggler", "storm")],
]


@pytest.mark.parametrize(
    "design,policy,network,batch,strategy,mode,overrides", REAL_CELLS,
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[4].value}-{c[5].value}"
         f"{'-' + '-'.join(map(str, c[6].values())) if c[6] else ''}"
         for c in REAL_CELLS])
def test_real_timelines_match_the_per_op_loop(design, policy, network,
                                              batch, strategy, mode,
                                              overrides):
    result, timeline = _lower(_cell(design, policy, **overrides),
                              network, batch, strategy, mode)
    assert_same_stats(timeline, policy, result.prefetch.evictions)
    assert (reference_prefetch_stats(timeline, policy,
                                     result.prefetch.evictions)
            == result.prefetch)
