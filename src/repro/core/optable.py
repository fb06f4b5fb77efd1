"""Columnar (struct-of-arrays) op tables: the simulator core.

A campaign grid schedules hundreds of thousands of ops, and per-op
Python objects (allocation, ``__post_init__`` validation, attribute
walks) would dominate the wall clock long before the arithmetic does.
This module keeps the *data* in parallel columns instead:

* :class:`OpTable` -- the append-only struct-of-arrays op container
  every emitter fills;
* :func:`schedule_ops` -- the deterministic list scheduler, run as a
  tight loop over the columns (the recurrence is a sequential
  dependency chain, so a numpy level-sweep would lose: the evaluated
  graphs average under two ops per dependency level);
* :class:`ColumnarTimeline` -- the scheduled result (``makespan``,
  ``busy``, ``busy_per_channel``, ``busy_time``, ``finish_of``,
  ``ops_on``, ``channels``, and a lazily materialized ``scheduled``
  tuple of :class:`~repro.core.timeline.ScheduledOp` views for trace
  export), plus :meth:`ColumnarTimeline.as_arrays` exposing the columns
  as numpy arrays for vectorized consumers
  (:func:`repro.vmem.prefetch.collect_prefetch_stats` prices its
  DMA/collective overlap on them).

Every float produced here -- start and finish times, busy sums, the
makespan -- is accumulated in uid order, so results are
byte-deterministic; ``tests/golden/core_results.json`` pins them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.timeline import EngineKind, Op, ScheduledOp
from repro.telemetry.registry import NOOP, on_activation

#: Telemetry probes for :func:`schedule_ops`, updated once per call
#: *after* the scheduling loop -- the tight loop itself is untouched.
_SCHED_RUNS = NOOP
_SCHED_OPS = NOOP
_SCHED_TABLE_OPS = NOOP


def _bind_probes(registry) -> None:
    global _SCHED_RUNS, _SCHED_OPS, _SCHED_TABLE_OPS
    if registry is None:
        _SCHED_RUNS = _SCHED_OPS = _SCHED_TABLE_OPS = NOOP
    else:
        _SCHED_RUNS = registry.counter(
            "repro_schedule_runs_total",
            "schedule_ops invocations")
        _SCHED_OPS = registry.counter(
            "repro_schedule_ops_total",
            "ops scheduled by schedule_ops")
        _SCHED_TABLE_OPS = registry.histogram(
            "repro_schedule_table_ops",
            "ops per scheduled op table",
            buckets=(64, 128, 256, 512, 1024, 2048, 4096, 8192,
                     16384))


on_activation(_bind_probes)

#: Stable integer codes for the four engine kinds (column dtype int8).
ENGINE_CODE: dict[EngineKind, int] = {
    EngineKind.COMPUTE: 0,
    EngineKind.DMA_OUT: 1,
    EngineKind.DMA_IN: 2,
    EngineKind.COMM: 3,
}

#: Inverse of :data:`ENGINE_CODE`, indexable by code.
CODE_ENGINE: tuple[EngineKind, ...] = tuple(
    sorted(ENGINE_CODE, key=ENGINE_CODE.__getitem__))


class _EngineView(Sequence):
    """Read-only :class:`EngineKind` view of an op table's code column."""

    __slots__ = ("_codes",)

    def __init__(self, codes: list[int]) -> None:
        self._codes = codes

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [CODE_ENGINE[c] for c in self._codes[index]]
        return CODE_ENGINE[self._codes[index]]

    def __len__(self) -> int:
        return len(self._codes)


class OpTable:
    """Struct-of-arrays op container.

    Columns are plain Python lists while the table is being built
    (appends are the hot path); :meth:`ColumnarTimeline.as_arrays`
    freezes them to numpy arrays after scheduling.  Validation matches
    :class:`~repro.core.timeline.Op` exactly.
    """

    __slots__ = ("codes", "durations", "deps", "tags", "nbytes",
                 "channels", "_ops")

    def __init__(self) -> None:
        #: :data:`ENGINE_CODE` ints -- the scheduler keys its slot dicts
        #: on these (int hashing beats enum hashing by an order of
        #: magnitude over a campaign's worth of ops).
        self.codes: list[int] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.nbytes: list[int] = []
        self.channels: list[int] = []
        self._ops: list[Op] | None = None

    @property
    def engines(self) -> Sequence[EngineKind]:
        """The engine of each op, as a read-only view of ``codes``."""
        return _EngineView(self.codes)

    def add(self, engine: EngineKind, duration: float, deps: list[int],
            tag: str, nbytes: int = 0, channel: int = 0) -> int:
        """Append one op; returns its uid (dense, in issue order)."""
        uid = len(self.durations)
        if not duration >= 0:
            raise ValueError(f"op {tag}: negative or NaN duration")
        if nbytes < 0:
            raise ValueError(f"op {tag}: negative byte count")
        if channel < 0:
            raise ValueError(f"op {tag}: negative channel")
        dep_tuple = tuple(deps)
        if dep_tuple:
            if max(dep_tuple) >= uid:
                raise ValueError(
                    f"op {tag}: dependency on a later op (cycle)")
            if min(dep_tuple) < 0:
                raise ValueError(f"op {tag}: negative dependency uid")
        self.codes.append(ENGINE_CODE[engine])
        self.durations.append(duration)
        self.deps.append(dep_tuple)
        self.tags.append(tag)
        self.nbytes.append(nbytes)
        self.channels.append(channel)
        self._ops = None
        return uid

    def __len__(self) -> int:
        return len(self.durations)

    @property
    def ops(self) -> list[Op]:
        """Materialized :class:`Op` views (lazily built, then cached)
        for trace export and tests that introspect tags/deps."""
        if self._ops is None or len(self._ops) != len(self.durations):
            self._ops = [
                Op(uid=i, engine=CODE_ENGINE[self.codes[i]],
                   duration=self.durations[i], deps=self.deps[i],
                   tag=self.tags[i], nbytes=self.nbytes[i],
                   channel=self.channels[i])
                for i in range(len(self.durations))]
        return self._ops


@dataclass(frozen=True, eq=False, slots=True)
class OpTopology:
    """An op graph without its prices: what the emitters memoise.

    Holds every op's engine code, dependencies and tag, plus two
    source indices per op -- into the cell's duration vector and into
    its byte vector (byte index 0 is reserved for "moves nothing").
    Many cells share one topology and differ only in those vectors, so
    :meth:`table` re-prices a cached topology in a few vector ops.

    Storage is compact because topologies live for the whole process:
    one byte per engine code, CSR int32 dependencies (op *i* depends on
    ``dep_flat[dep_ptr[i]:dep_ptr[i + 1]]``), int32 source indices.
    """

    codes: bytes
    dep_ptr: np.ndarray
    dep_flat: np.ndarray
    tags: tuple[str, ...]
    dur_src: np.ndarray
    byte_src: np.ndarray
    #: Emitter-specific name tuples the pricing pass turns into the
    #: duration and byte vectors (see :mod:`repro.core.schedule`).
    segments: dict[str, tuple]

    def __len__(self) -> int:
        return len(self.codes)

    def table(self, seconds: list[float], nbytes: list[int]) -> OpTable:
        """Gather one cell's prices into an ordinary :class:`OpTable`.

        ``seconds`` / ``nbytes`` are the cell's duration and byte
        vectors; every op reads its entries through the source
        indices.  Rejects NaN as well as negative durations.
        """
        durations = np.asarray(seconds, dtype=np.float64)[self.dur_src]
        sizes = np.asarray(nbytes, dtype=np.int64)[self.byte_src]
        if not (durations >= 0).all():
            bad = int(np.argmin(durations >= 0))
            raise ValueError(f"op {self.tags[bad]}: negative or NaN "
                             f"duration")
        if not (sizes >= 0).all():
            bad = int(np.argmin(sizes >= 0))
            raise ValueError(f"op {self.tags[bad]}: negative byte count")
        flat = self.dep_flat.tolist()
        ptr = self.dep_ptr.tolist()
        table = OpTable()
        table.codes = list(self.codes)
        table.durations = durations.tolist()
        table.deps = [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
        table.tags = list(self.tags)
        table.nbytes = sizes.tolist()
        table.channels = [0] * len(self.codes)
        return table


class TopologyBuilder:
    """Append-only builder of an :class:`OpTopology`.

    Mirrors :meth:`OpTable.add`, with value-vector indices where the
    table takes a duration and a byte count.  Tags are drawn from
    ``tag_pool`` so topologies of one network share their strings.
    """

    __slots__ = ("tag_pool", "codes", "deps", "tags", "dur_src",
                 "byte_src")

    def __init__(self, tag_pool: dict[str, str]) -> None:
        self.tag_pool = tag_pool
        self.codes: list[int] = []
        self.deps: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.dur_src: list[int] = []
        self.byte_src: list[int] = []

    def add(self, engine: EngineKind, dur_src: int, deps: list[int],
            tag: str, byte_src: int = 0) -> int:
        """Append one op; returns its uid (dense, in issue order)."""
        uid = len(self.codes)
        if any(not 0 <= d < uid for d in deps):
            raise ValueError(
                f"op {tag}: dependency on a later op (cycle)")
        self.codes.append(ENGINE_CODE[engine])
        self.deps.append(tuple(deps))
        self.tags.append(self.tag_pool.setdefault(tag, tag))
        self.dur_src.append(dur_src)
        self.byte_src.append(byte_src)
        return uid

    def freeze(self, **segments: tuple) -> OpTopology:
        """The compact, immutable topology of everything added."""
        arrays = (
            np.cumsum([0] + [len(dep) for dep in self.deps],
                      dtype=np.int32),
            np.array([d for dep in self.deps for d in dep],
                     dtype=np.int32),
            np.array(self.dur_src, dtype=np.int32),
            np.array(self.byte_src, dtype=np.int32))
        for array in arrays:
            array.flags.writeable = False
        dep_ptr, dep_flat, dur_src, byte_src = arrays
        return OpTopology(
            codes=bytes(self.codes), dep_ptr=dep_ptr, dep_flat=dep_flat,
            tags=tuple(self.tags), dur_src=dur_src, byte_src=byte_src,
            segments=segments)


class ColumnarTimeline:
    """Scheduled outcome of an :class:`OpTable`.

    ``busy`` aggregates across channels (the SPMD view);
    ``busy_per_channel`` keeps the per-stage split pipeline metrics
    need.  ``scheduled`` materializes per-op objects lazily, so
    consumers that never iterate ops (the ``simulate()`` fast path)
    never pay for them; :meth:`as_arrays` serves vectorized consumers
    instead.
    """

    __slots__ = ("table", "start", "finish", "prev_slot_finish",
                 "makespan", "busy", "busy_per_channel", "_scheduled",
                 "_arrays")

    def __init__(self, table: OpTable, start: list[float],
                 finish: list[float], prev_slot_finish: list[float],
                 makespan: float, busy: dict[EngineKind, float],
                 busy_per_channel: dict[tuple[EngineKind, int], float]) \
            -> None:
        self.table = table
        self.start = start
        self.finish = finish
        #: Per op: the finish time of the previous op on its
        #: (engine, channel) slot, 0.0 for the slot's first op.  The
        #: prefetch-stats collector needs it to separate engine
        #: serialization from dependency stalls.
        self.prev_slot_finish = prev_slot_finish
        self.makespan = makespan
        self.busy = busy
        self.busy_per_channel = busy_per_channel
        self._scheduled: tuple[ScheduledOp, ...] | None = None
        self._arrays: dict[str, np.ndarray] | None = None

    # -- Per-op surface --------------------------------------------------

    @property
    def scheduled(self) -> tuple[ScheduledOp, ...]:
        """Per-op schedule as :class:`ScheduledOp` objects (lazy)."""
        if self._scheduled is None:
            ops = self.table.ops
            self._scheduled = tuple(
                ScheduledOp(op=ops[i], start=self.start[i],
                            finish=self.finish[i])
                for i in range(len(ops)))
        return self._scheduled

    def finish_of(self, uid: int) -> float:
        """Finish time (seconds) of the op with this uid."""
        return self.finish[uid]

    def ops_on(self, engine: EngineKind,
               channel: int | None = None) -> list[ScheduledOp]:
        """Scheduled ops of one engine (optionally one channel), in
        issue (uid) order -- even across equal timestamps."""
        return [s for s in self.scheduled if s.op.engine is engine
                and (channel is None or s.op.channel == channel)]

    def busy_time(self, engine: EngineKind,
                  channel: int | None = None) -> float:
        """Total seconds the engine executed ops (optionally per
        channel)."""
        if channel is None:
            return self.busy.get(engine, 0.0)
        return self.busy_per_channel.get((engine, channel), 0.0)

    @property
    def channels(self) -> tuple[int, ...]:
        """Channel indices present, ascending (SPMD timelines: (0,))."""
        return tuple(sorted(set(self.table.channels))) or (0,)

    # -- Vectorized surface ----------------------------------------------

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The schedule as numpy struct-of-arrays (cached).

        Keys: ``engine`` (int8 :data:`ENGINE_CODE` codes), ``duration``
        / ``start`` / ``finish`` / ``prev_slot_finish`` (float64
        seconds), ``nbytes`` (int64), ``channel`` (int32).  float64
        conversion is value-preserving, so vectorized consumers see the
        exact scheduled times.
        """
        if self._arrays is None:
            t = self.table
            self._arrays = {
                "engine": np.asarray(t.codes, dtype=np.int8),
                "duration": np.asarray(t.durations, dtype=np.float64),
                "nbytes": np.asarray(t.nbytes, dtype=np.int64),
                "channel": np.asarray(t.channels, dtype=np.int32),
                "start": np.asarray(self.start, dtype=np.float64),
                "finish": np.asarray(self.finish, dtype=np.float64),
                "prev_slot_finish": np.asarray(self.prev_slot_finish,
                                               dtype=np.float64),
            }
        return self._arrays


def schedule_ops(table: OpTable) -> ColumnarTimeline:
    """List-schedule an :class:`OpTable`: engines serialize, and each
    op starts once its (engine, channel) slot is free and every
    dependency has finished.

    The recurrence is a sequential chain, so it runs as one tight loop
    over the columns; busy times accumulate in uid order.
    """
    codes = table.codes
    durations = table.durations
    deps = table.deps
    tab_channels = table.channels

    # Slot state indexed by engine code; dict keys are plain-int
    # channels (enum-keyed dicts would hash the enum several times per
    # op -- measurable over a campaign grid).
    free_by_code: list[dict[int, float]] = [{}, {}, {}, {}]
    busy_by_code: list[float] = [0.0, 0.0, 0.0, 0.0]
    busy_ch_by_code: list[dict[int, float]] = [{}, {}, {}, {}]
    finish: list[float] = []
    start: list[float] = []
    prev_slot: list[float] = []
    finish_append = finish.append
    start_append = start.append
    prev_append = prev_slot.append

    for i in range(len(durations)):
        ready = 0.0
        for d in deps[i]:
            f = finish[d]
            if f > ready:
                ready = f
        code = codes[i]
        channel = tab_channels[i]
        slots = free_by_code[code]
        free = slots.get(channel, 0.0)
        begin = free if free > ready else ready
        duration = durations[i]
        end = begin + duration
        slots[channel] = end
        busy_by_code[code] += duration
        busy_ch = busy_ch_by_code[code]
        busy_ch[channel] = busy_ch.get(channel, 0.0) + duration
        prev_append(free)
        start_append(begin)
        finish_append(end)

    busy = {engine: busy_by_code[code]
            for engine, code in ENGINE_CODE.items()}
    busy_per_channel = {
        (CODE_ENGINE[code], channel): seconds
        for code in range(4)
        for channel, seconds in busy_ch_by_code[code].items()}
    makespan = max(finish, default=0.0)
    _SCHED_RUNS.inc()
    _SCHED_OPS.inc(len(durations))
    _SCHED_TABLE_OPS.observe(len(durations))
    return ColumnarTimeline(table=table, start=start, finish=finish,
                            prev_slot_finish=prev_slot,
                            makespan=makespan, busy=busy,
                            busy_per_channel=busy_per_channel)
