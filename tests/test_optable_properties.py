"""Property tests of the columnar op table and its scheduler.

Hypothesis drives random DAG-shaped op programs through
:func:`~repro.core.optable.schedule_ops` and holds it to exact
equality with :func:`reference_schedule`, a plain per-op list
scheduler kept here as the oracle:

* identical start/finish/busy/makespan for every op (bitwise float
  equality -- both schedulers walk ops in uid order and accumulate in
  the same sequence);
* stable event order: ``ops_on`` never reorders ops, even across
  equal timestamps (zero-duration ops pile up on one instant);
* ``prev_slot_finish`` is exactly the engine-slot free time the
  scheduler saw when each op was issued;
* validation parity: the table rejects exactly the ops the
  :class:`~repro.core.timeline.Op` view rejects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optable import OpTable, schedule_ops
from repro.core.timeline import EngineKind, Op, ScheduledOp

ENGINES = tuple(EngineKind)


@st.composite
def op_programs(draw):
    """A random valid op program: (engine, duration, deps, channel)."""
    n = draw(st.integers(min_value=0, max_value=40))
    program = []
    for uid in range(n):
        engine = draw(st.sampled_from(ENGINES))
        # Mix zero durations in aggressively: equal timestamps are the
        # interesting ordering case.
        duration = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)))
        deps = (draw(st.lists(st.integers(0, uid - 1), max_size=4,
                              unique=True))
                if uid else [])
        channel = draw(st.integers(min_value=0, max_value=2))
        nbytes = draw(st.integers(min_value=0, max_value=1 << 20))
        program.append((engine, duration, deps, channel, nbytes))
    return program


def build(program) -> tuple[list[Op], OpTable]:
    """The program as plain :class:`Op` records and as a table."""
    ops, table = [], OpTable()
    for i, (engine, duration, deps, channel, nbytes) in enumerate(program):
        tag = f"op{i}"
        ops.append(Op(i, engine, duration, tuple(deps), tag, nbytes,
                      channel))
        assert table.add(engine, duration, deps, tag, nbytes=nbytes,
                         channel=channel) == i
    return ops, table


class Reference:
    """The seed's list scheduler, one :class:`ScheduledOp` per op: an
    op starts once its (engine, channel) slot is free and every
    dependency has finished."""

    def __init__(self, ops: list[Op]) -> None:
        free: dict[tuple[EngineKind, int], float] = {}
        self.busy = dict.fromkeys(EngineKind, 0.0)
        self.busy_per_channel: dict[tuple[EngineKind, int], float] = {}
        self.scheduled: list[ScheduledOp] = []
        for op in ops:
            slot = (op.engine, op.channel)
            ready = max((self.scheduled[d].finish for d in op.deps),
                        default=0.0)
            start = max(free.get(slot, 0.0), ready)
            free[slot] = start + op.duration
            self.busy[op.engine] += op.duration
            self.busy_per_channel[slot] = \
                self.busy_per_channel.get(slot, 0.0) + op.duration
            self.scheduled.append(ScheduledOp(op, start, free[slot]))
        self.makespan = max((s.finish for s in self.scheduled),
                            default=0.0)
        self.channels = tuple(sorted({op.channel for op in ops})) or (0,)

    def ops_on(self, engine: EngineKind,
               channel: int | None = None) -> list[ScheduledOp]:
        return [s for s in self.scheduled if s.op.engine is engine
                and (channel is None or s.op.channel == channel)]


class TestSchedulerEquivalence:
    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_schedules_identically(self, program):
        ops, table = build(program)
        ref = Reference(ops)
        col = schedule_ops(table)

        assert table.ops == ops
        assert col.makespan == ref.makespan
        assert col.busy == ref.busy
        assert col.busy_per_channel == ref.busy_per_channel
        assert col.channels == ref.channels
        for uid in range(len(program)):
            assert col.scheduled[uid] == ref.scheduled[uid]
            assert col.finish_of(uid) == ref.scheduled[uid].finish

    @given(op_programs())
    @settings(max_examples=75, deadline=None)
    def test_no_reordering_across_equal_timestamps(self, program):
        """``ops_on`` preserves issue (uid) order.

        With many zero-duration ops sharing one timestamp, a sort by
        start time could legally permute them; the contract is
        stronger -- event order IS uid order, always.
        """
        ops, table = build(program)
        ref = Reference(ops)
        col = schedule_ops(table)
        for engine in ENGINES:
            for channel in (None, 0, 1, 2):
                ref_ops = ref.ops_on(engine, channel)
                col_ops = col.ops_on(engine, channel)
                assert ([s.op.uid for s in col_ops]
                        == [s.op.uid for s in ref_ops])
                uids = [s.op.uid for s in col_ops]
                assert uids == sorted(uids)

    @given(op_programs())
    @settings(max_examples=100, deadline=None)
    def test_prev_slot_finish_matches_scheduler_state(self, program):
        """The recorded slot-free time replays the scheduler exactly."""
        _, table = build(program)
        col = schedule_ops(table)
        slot_free: dict[tuple[EngineKind, int], float] = {}
        for uid in range(len(program)):
            engine = table.engines[uid]
            channel = table.channels[uid]
            assert (col.prev_slot_finish[uid]
                    == slot_free.get((engine, channel), 0.0))
            slot_free[(engine, channel)] = col.finish_of(uid)


class TestContainerParity:
    def test_validation_parity_forward_dep(self):
        table = OpTable()
        table.add(EngineKind.COMPUTE, 1.0, [], "a")
        for reject in (lambda: table.add(EngineKind.COMPUTE, 1.0, [5], "b"),
                       lambda: Op(1, EngineKind.COMPUTE, 1.0, (5,), "b")):
            try:
                reject()
            except ValueError as exc:
                assert "cycle" in str(exc)
            else:  # pragma: no cover - failure path
                raise AssertionError("forward dep accepted")

    def test_validation_parity_negative_fields(self):
        for kwargs in ({"duration": -1.0}, {"nbytes": -1},
                       {"channel": -1}):
            op = {"engine": EngineKind.COMPUTE, "duration": 1.0,
                  "deps": (), "tag": "x", "nbytes": 0, "channel": 0,
                  **kwargs}
            for reject in (lambda: OpTable().add(**op),
                           lambda: Op(uid=0, **op)):
                try:
                    reject()
                except ValueError:
                    continue
                raise AssertionError(  # pragma: no cover
                    f"accepted {kwargs}")

    def test_validation_parity_nan_duration(self):
        """NaN would otherwise reach the scheduler as a NaN makespan."""
        for reject in (lambda: OpTable().add(EngineKind.COMPUTE,
                                             float("nan"), [], "x"),
                       lambda: Op(0, EngineKind.COMPUTE, float("nan"),
                                  (), "x")):
            with pytest.raises(ValueError, match="op x: .*NaN"):
                reject()

    def test_validation_parity_negative_dep(self):
        """A negative uid would silently alias the last op (finish[-1])."""
        table = OpTable()
        table.add(EngineKind.COMPUTE, 1.0, [], "a")
        for reject in (lambda: table.add(EngineKind.COMPUTE, 1.0, [-1],
                                         "b"),
                       lambda: Op(1, EngineKind.COMPUTE, 1.0, (-1,), "b")):
            with pytest.raises(ValueError,
                               match="op b: negative dependency uid"):
                reject()
        assert len(table) == 1

    def test_engines_is_a_read_only_view_of_codes(self):
        _, table = build(
            [(EngineKind.COMPUTE, 1.0, [], 0, 0),
             (EngineKind.DMA_IN, 0.5, [0], 0, 16)])
        engines = table.engines
        assert list(engines) == [EngineKind.COMPUTE, EngineKind.DMA_IN]
        table.add(EngineKind.COMM, 0.1, [1], "late")
        assert engines[-1] is EngineKind.COMM and len(engines) == 3
        with pytest.raises(TypeError):
            engines[0] = EngineKind.COMM  # type: ignore[index]

    def test_lazy_ops_materialization(self):
        _, table = build(
            [(EngineKind.COMPUTE, 1.0, [], 0, 0),
             (EngineKind.COMM, 0.5, [0], 1, 16)])
        ops = table.ops
        assert ops is table.ops  # cached
        assert [o.uid for o in ops] == [0, 1]
        table.add(EngineKind.DMA_OUT, 0.1, [1], "late")
        assert len(table.ops) == 3  # cache invalidated by add
