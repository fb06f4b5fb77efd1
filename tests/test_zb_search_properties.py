"""Exactness of the compiled zb-auto makespan evaluator and the
memoised slot search.

Two plain reference implementations are kept here as oracles:

* :func:`reference_makespan` -- the dict-keyed evaluator, one
  ``(stage, microbatch)`` entry per finished F and B op;
* :func:`reference_search` -- the coordinate descent that rebuilds
  every stage program on every trial and evaluates every trial.

Hypothesis holds the shipped code to exact equality with them (``==``
on floats, identical slots and parameters), and the memo tests check
that ``pricing.clear_caches()`` really makes the next search cold.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pricing
from repro.core.design_points import design_point
from repro.core.simulator import simulate
from repro.pipeline import schedules
from repro.pipeline.schedules import (OpKind, ScheduleCosts, ScheduleKind,
                                      StageProgram, _auto_zero_bubble_params,
                                      _zb_h1_params, _zero_bubble_program,
                                      build_schedule, evaluate_makespan)
from repro.training.parallel import ParallelStrategy


def reference_makespan(programs: tuple[StageProgram, ...],
                       costs: ScheduleCosts) -> float:
    """Per-slot evaluator over ``(stage, microbatch)``-keyed dicts."""
    n_stages = len(programs)
    cursors = [0] * n_stages
    engine_free = [0.0] * n_stages
    f_done: dict[tuple[int, int], float] = {}
    b_done: dict[tuple[int, int], float] = {}
    total = sum(len(p.slots) for p in programs)
    emitted = 0
    progress = True
    while progress:
        progress = False
        for s in range(n_stages):
            slots = programs[s].slots
            while cursors[s] < len(slots):
                slot = slots[cursors[s]]
                m = slot.microbatch
                if slot.kind is OpKind.F:
                    if s > 0:
                        if (s - 1, m) not in f_done:
                            break
                        ready = f_done[(s - 1, m)] + costs.send_fwd[s - 1]
                    else:
                        ready = 0.0
                    finish = max(engine_free[s], ready) + costs.t_fwd[s]
                    f_done[(s, m)] = finish
                elif slot.kind is OpKind.B:
                    if s < n_stages - 1:
                        if (s + 1, m) not in b_done:
                            break
                        ready = b_done[(s + 1, m)] + costs.send_bwd[s + 1]
                    else:
                        ready = f_done[(s, m)]
                    finish = max(engine_free[s], ready) + costs.t_bwd[s]
                    b_done[(s, m)] = finish
                else:
                    finish = max(engine_free[s], b_done[(s, m)]) \
                        + costs.t_wgrad[s]
                engine_free[s] = finish
                cursors[s] += 1
                emitted += 1
                progress = True
    if emitted != total:
        raise RuntimeError(f"deadlocked after {emitted}/{total} slots")
    return max(engine_free) if engine_free else 0.0


def reference_search(n_stages: int, n_microbatches: int,
                     costs: ScheduleCosts) -> list[tuple[int, int]]:
    """Unmemoised coordinate descent: every trial rebuilt, every trial
    evaluated."""

    def build(params):
        return tuple(
            _zero_bubble_program(s, n_stages, n_microbatches, d, k)
            for s, (d, k) in enumerate(params))

    params = _zb_h1_params(n_stages, n_microbatches)
    best = reference_makespan(build(params), costs)
    for _ in range(2):
        for s in range(n_stages):
            warmup = min(n_stages - 1 - s, n_microbatches)
            for defer in sorted({0, warmup // 2, warmup}):
                for drain_w in (0, 1, 2, n_microbatches):
                    if (defer, drain_w) == params[s]:
                        continue
                    trial = list(params)
                    trial[s] = (defer, drain_w)
                    span = reference_makespan(build(trial), costs)
                    if span < best * (1.0 - 1e-12):
                        best = span
                        params = trial
    return params


#: Non-negative op and send times; zeros drawn often (free sends and
#: zero-cost W are where ties, and so ordering bugs, show up).
times = st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False, allow_infinity=False))


@st.composite
def search_inputs(draw, max_stages: int = 8, max_microbatches: int = 16):
    n_stages = draw(st.integers(min_value=1, max_value=max_stages))
    n_mb = draw(st.integers(min_value=1, max_value=max_microbatches))
    per_stage = st.lists(times, min_size=n_stages, max_size=n_stages)
    costs = ScheduleCosts(*(tuple(draw(per_stage)) for _ in range(5)))
    return n_stages, n_mb, costs


class TestCompiledEvaluator:
    @settings(max_examples=150, deadline=None)
    @given(inputs=search_inputs(), data=st.data())
    def test_zero_bubble_makespan_equals_reference(self, inputs, data):
        n_stages, n_mb, costs = inputs
        knobs = st.tuples(st.integers(0, n_mb), st.integers(0, n_mb))
        params = data.draw(st.lists(knobs, min_size=n_stages,
                                    max_size=n_stages))
        programs = tuple(
            _zero_bubble_program(s, n_stages, n_mb, d, k)
            for s, (d, k) in enumerate(params))
        assert evaluate_makespan(programs, costs) \
            == reference_makespan(programs, costs)

    @settings(max_examples=60, deadline=None)
    @given(inputs=search_inputs(),
           kind=st.sampled_from((ScheduleKind.GPIPE,
                                 ScheduleKind.ONE_F_ONE_B,
                                 ScheduleKind.ZB_H1)))
    def test_fixed_schedule_makespan_equals_reference(self, inputs,
                                                      kind):
        n_stages, n_mb, costs = inputs
        programs = build_schedule(kind, n_stages, n_mb).programs
        assert evaluate_makespan(programs, costs) \
            == reference_makespan(programs, costs)

    def test_empty_pipeline(self):
        costs = ScheduleCosts((), (), (), (), ())
        assert evaluate_makespan((), costs) == 0.0


class TestMemoisedSearch:
    @settings(max_examples=40, deadline=None)
    @given(inputs=search_inputs())
    def test_search_matches_reference(self, inputs):
        n_stages, n_mb, costs = inputs
        expected = reference_search(n_stages, n_mb, costs)
        schedules.clear_search_cache()
        schedule = build_schedule(ScheduleKind.ZB_AUTO, n_stages, n_mb,
                                  costs)
        assert [p.slots for p in schedule.programs] == [
            _zero_bubble_program(s, n_stages, n_mb, d, k).slots
            for s, (d, k) in enumerate(expected)]
        params = _auto_zero_bubble_params(n_stages, n_mb, costs)
        # A tuple (callers cannot mutate the memoised value) equal to
        # the reference's knobs.
        assert params == tuple(expected)
        # A repeated call is served from the memo: the same object.
        assert _auto_zero_bubble_params(n_stages, n_mb, costs) is params

    def test_equal_costs_share_one_entry(self):
        schedules.clear_search_cache()
        first = _auto_zero_bubble_params(
            3, 6, ScheduleCosts(*((1.0, 2.0, 0.5),) * 5))
        second = _auto_zero_bubble_params(
            3, 6, ScheduleCosts(*((1.0, 2.0, 0.5),) * 5))
        assert second is first


class TestMemoHygiene:
    def _count_evals(self, monkeypatch) -> list[int]:
        calls = [0]
        original = schedules.evaluate_makespan

        def counted(programs, costs):
            calls[0] += 1
            return original(programs, costs)

        monkeypatch.setattr(schedules, "evaluate_makespan", counted)
        return calls

    def _simulate(self):
        config = dataclasses.replace(design_point("MC-DLA(B)"),
                                     pipeline_schedule="zb-auto")
        return simulate(config, "GPT2", 64, ParallelStrategy.PIPELINE)

    def test_clear_caches_makes_the_search_cold(self, monkeypatch):
        calls = self._count_evals(monkeypatch)
        pricing.clear_caches()
        cold = self._simulate()
        assert calls[0] > 0
        calls[0] = 0
        warm = self._simulate()
        assert calls[0] == 0
        assert warm == cold
        pricing.clear_caches()
        self._simulate()
        assert calls[0] > 0
