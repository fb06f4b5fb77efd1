"""Columnar (struct-of-arrays) op tables: the simulator core.

A campaign grid schedules hundreds of thousands of ops, and per-op
Python objects (allocation, ``__post_init__`` validation, attribute
walks) would dominate the wall clock long before the arithmetic does.
This module keeps the *data* in parallel columns instead:

* :class:`OpTable` -- the append-only struct-of-arrays op container
  every emitter fills;
* :class:`ConsumerIndex` -- the structural facts the scheduler and the
  prefetch-stats collector read (slot predecessors, stall candidates,
  per-channel DMA/collective groups), built once per
  :class:`OpTopology` and shared by every cell priced from it;
* :func:`schedule_ops` -- the deterministic list scheduler, run as a
  tight loop over the columns (the recurrence is a sequential
  dependency chain, so a numpy level-sweep would lose: the evaluated
  graphs average under two ops per dependency level);
* :class:`ColumnarTimeline` -- the scheduled result (``makespan``,
  ``busy``, ``busy_per_channel``, ``busy_time``, ``finish_of``,
  ``ops_on``, ``channels``, and a lazily materialized ``scheduled``
  tuple of :class:`~repro.core.timeline.ScheduledOp` views for trace
  export).

Every float produced here -- start and finish times, busy sums, the
makespan -- is accumulated in uid order, so results are
byte-deterministic; ``tests/golden/core_results.json`` pins them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

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

    Columns are plain Python lists (appends are the hot path).
    Validation matches :class:`~repro.core.timeline.Op` exactly.
    """

    __slots__ = ("codes", "durations", "deps", "tags", "nbytes",
                 "channels", "topology", "_ops")

    def __init__(self) -> None:
        #: :data:`ENGINE_CODE` ints, one per op.
        self.codes: list[int] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.nbytes: list[int] = []
        self.channels: list[int] = []
        #: The topology this table was priced from (its
        #: :class:`ConsumerIndex` is then shared), or None for a table
        #: built op by op.
        self.topology: OpTopology | None = None
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
        self.topology = None
        self._ops = None
        return uid

    def __len__(self) -> int:
        return len(self.durations)

    def consumer_index(self) -> ConsumerIndex:
        """The table's :class:`ConsumerIndex`: its topology's cached one,
        or, for a table built op by op, one built from the columns."""
        if self.topology is not None:
            return self.topology.index
        return build_consumer_index(self.codes, self.deps, self.tags,
                                    self.channels)

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


def _frozen(array: np.ndarray, dtype=np.int32) -> np.ndarray:
    array = np.asarray(array, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False, slots=True)
class ConsumerIndex:
    """The structural facts the scheduler and the prefetch-stats
    collector read from an op graph.

    All of it follows from engine codes, dependencies, tags and
    channels -- never from prices -- so a topology builds it once and
    every cell priced from that topology shares it.

    Slots are FIFO in uid order: an op's (engine, channel) slot frees
    when its slot predecessor finishes, so the scheduler's recurrence
    is ``start[i] = max(finish[slot_pred[i]], finish[deps of i])``
    with ``finish[-1]`` read as 0.0.  Arrays are read-only int32 (bool
    for ``waste``).
    """

    #: Per op, its dependency uids (what ``OpTable.deps`` holds).
    deps: tuple[tuple[int, ...], ...]
    #: Per op, the uid of the previous op on its (engine, channel)
    #: slot; -1 for a slot's first op.
    slot_pred: np.ndarray
    #: Per op, its slot's position in ``slots``.
    slot_of: np.ndarray
    #: (engine code, channel) of every slot: engines in code order,
    #: each engine's channels in first-appearance order.
    slots: tuple[tuple[int, int], ...]
    #: Uids of the DMA-in ops, and which of them ride a ``waste:`` tag.
    dma_in: np.ndarray
    waste: np.ndarray
    #: Stall candidates: compute ops with at least one DMA-in
    #: dependency, ascending.
    stall: np.ndarray
    #: Their DMA-in dependencies, candidate by candidate in dependency
    #: order (``fetch_flat``), and each entry's candidate position
    #: (``fetch_owner``).
    fetch_flat: np.ndarray
    fetch_owner: np.ndarray
    #: CSR of what else each candidate waits for: candidate *k* reads
    #: ``wait_flat[wait_ptr[k]:wait_ptr[k + 1]]`` -- its slot
    #: predecessor first (so no segment is empty), then its non-DMA-in
    #: dependencies.
    wait_ptr: np.ndarray
    wait_flat: np.ndarray
    #: Per channel carrying both migration DMAs and collectives,
    #: ascending by channel: (DMA-in and DMA-out uids, COMM uids).
    channel_groups: tuple[tuple[np.ndarray, np.ndarray], ...]


def build_consumer_index(codes: Sequence[int], deps: Sequence[tuple],
                         tags: Sequence[str],
                         channels: Sequence[int]) -> ConsumerIndex:
    """Derive the :class:`ConsumerIndex` of an op graph's columns."""
    n = len(deps)
    code = np.fromiter(codes, dtype=np.int64, count=n)
    channel = np.asarray(channels, dtype=np.int64)
    lens = np.fromiter(map(len, deps), dtype=np.int64, count=n)
    flat = np.fromiter(chain.from_iterable(deps), dtype=np.int64,
                       count=int(lens.sum()))
    owner = np.repeat(np.arange(n), lens)

    # Slot predecessors: a stable sort groups each slot's ops in uid
    # order, so each op's predecessor is its neighbour in the sort.
    key = code * (int(channel.max(initial=0)) + 1) + channel
    order = np.argsort(key, kind="stable")
    same = key[order[1:]] == key[order[:-1]]
    slot_pred = np.full(n, -1, dtype=np.int64)
    slot_pred[order[1:][same]] = order[:-1][same]
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    slot_code = code[first]
    ranked = np.lexsort((first, slot_code))
    rank = np.empty(len(ranked), dtype=np.int64)
    rank[ranked] = np.arange(len(ranked))
    slots = tuple((int(slot_code[j]), int(channel[first[j]]))
                  for j in ranked)

    dma_in_code = ENGINE_CODE[EngineKind.DMA_IN]
    dma_in = np.nonzero(code == dma_in_code)[0]
    fetch_edge = code[flat] == dma_in_code
    has_fetch = np.zeros(n, dtype=bool)
    has_fetch[owner[fetch_edge]] = True
    stall = np.nonzero(has_fetch
                       & (code == ENGINE_CODE[EngineKind.COMPUTE]))[0]
    position = np.full(n, -1, dtype=np.int64)
    position[stall] = np.arange(len(stall))
    waiting = position[owner] >= 0
    fetch_mask = waiting & fetch_edge
    other_mask = waiting & ~fetch_edge
    n_other = np.bincount(position[owner[other_mask]],
                          minlength=len(stall))
    wait_ptr = np.concatenate(([0], np.cumsum(1 + n_other)))
    wait_flat = np.empty(int(wait_ptr[-1]), dtype=np.int64)
    heads = wait_ptr[:-1]
    wait_flat[heads] = slot_pred[stall]
    body = np.ones(len(wait_flat), dtype=bool)
    body[heads] = False
    wait_flat[body] = flat[other_mask]

    dma = (code == dma_in_code) | (code == ENGINE_CODE[EngineKind.DMA_OUT])
    comm = code == ENGINE_CODE[EngineKind.COMM]
    groups = []
    for ch in sorted(set(channel[dma].tolist())):
        on = channel == ch
        theirs = np.nonzero(comm & on)[0]
        if len(theirs):
            groups.append((_frozen(np.nonzero(dma & on)[0]),
                           _frozen(theirs)))
    return ConsumerIndex(
        deps=tuple(deps),
        slot_pred=_frozen(slot_pred),
        slot_of=_frozen(rank[inverse]),
        slots=slots,
        dma_in=_frozen(dma_in),
        waste=_frozen([tags[i].startswith("waste:") for i in dma_in],
                      dtype=bool),
        stall=_frozen(stall),
        fetch_flat=_frozen(flat[fetch_mask]),
        fetch_owner=_frozen(position[owner[fetch_mask]]),
        wait_ptr=_frozen(wait_ptr),
        wait_flat=_frozen(wait_flat),
        channel_groups=tuple(groups))


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
    The :class:`ConsumerIndex` is built on first use and lives as long
    as the topology (so clearing the topology memo drops it too).
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
    _index: ConsumerIndex | None = field(default=None, init=False,
                                         repr=False)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def index(self) -> ConsumerIndex:
        """The graph's :class:`ConsumerIndex` (built once, then cached)."""
        if self._index is None:
            flat = self.dep_flat.tolist()
            ptr = self.dep_ptr.tolist()
            deps = [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
            object.__setattr__(self, "_index", build_consumer_index(
                self.codes, deps, self.tags,
                np.zeros(len(deps), dtype=np.int64)))
        return self._index

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
        table = OpTable()
        table.codes = list(self.codes)
        table.durations = durations.tolist()
        table.deps = list(self.index.deps)
        table.tags = list(self.tags)
        table.nbytes = sizes.tolist()
        table.channels = [0] * len(self.codes)
        table.topology = self
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
    never pay for them.
    """

    __slots__ = ("table", "index", "start", "finish", "makespan", "busy",
                 "busy_per_channel", "_scheduled")

    def __init__(self, table: OpTable, index: ConsumerIndex,
                 start: list[float], finish: list[float],
                 makespan: float, busy: dict[EngineKind, float],
                 busy_per_channel: dict[tuple[EngineKind, int], float]) \
            -> None:
        self.table = table
        #: The :class:`ConsumerIndex` the schedule was built from.
        self.index = index
        self.start = start
        self.finish = finish
        self.makespan = makespan
        self.busy = busy
        self.busy_per_channel = busy_per_channel
        self._scheduled: tuple[ScheduledOp, ...] | None = None

    @property
    def prev_slot_finish(self) -> list[float]:
        """Per op: the finish time of the previous op on its (engine,
        channel) slot, 0.0 for the slot's first op -- when the slot
        freed for it."""
        finish = self.finish
        return [finish[p] if p >= 0 else 0.0
                for p in self.index.slot_pred.tolist()]

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


def schedule_ops(table: OpTable) -> ColumnarTimeline:
    """List-schedule an :class:`OpTable`: engines serialize, and each
    op starts once its (engine, channel) slot is free and every
    dependency has finished.

    The recurrence is a sequential chain, so it runs as one tight loop
    over the columns; the slot an op waits for is its
    :class:`ConsumerIndex` slot predecessor, and busy times accumulate
    in uid order.
    """
    index = table.consumer_index()
    n = len(table.durations)
    # One spare entry: finish[-1] is the 0.0 a slot's first op reads.
    finish: list[float] = [0.0] * (n + 1)
    start: list[float] = [0.0] * n
    busy_by_code: list[float] = [0.0, 0.0, 0.0, 0.0]
    busy_by_slot: list[float] = [0.0] * len(index.slots)

    for i, op_deps, pred, duration, code, slot in zip(
            range(n), table.deps, index.slot_pred.tolist(),
            table.durations, table.codes, index.slot_of.tolist()):
        ready = 0.0
        for d in op_deps:
            f = finish[d]
            if f > ready:
                ready = f
        free = finish[pred]
        begin = free if free > ready else ready
        start[i] = begin
        finish[i] = begin + duration
        busy_by_code[code] += duration
        busy_by_slot[slot] += duration
    finish.pop()

    busy = {engine: busy_by_code[code]
            for engine, code in ENGINE_CODE.items()}
    busy_per_channel = {
        (CODE_ENGINE[code], channel): seconds
        for (code, channel), seconds in zip(index.slots, busy_by_slot)}
    makespan = max(finish, default=0.0)
    _SCHED_RUNS.inc()
    _SCHED_OPS.inc(n)
    _SCHED_TABLE_OPS.observe(n)
    return ColumnarTimeline(table=table, index=index, start=start,
                            finish=finish, makespan=makespan, busy=busy,
                            busy_per_channel=busy_per_channel)
