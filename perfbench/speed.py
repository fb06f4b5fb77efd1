"""Machine-speed normalisation for the timed section.

On a shared host the speed of one core drifts by 20% and more over
tens of seconds and differs between processes, which would swamp the
changes the benchmark exists to show.  So the measuring process runs a
fixed pure-Python probe (dict lookups and attribute reads over a
prebuilt table; it allocates nothing, so it neither triggers nor pays
for the program's garbage collections) right before its timed section
and then between cells, at most every ``PROBE_EVERY_S``.  Each
stretch of work is rescaled by ``REFERENCE_PROBE_S / <median duration
of the latest probes before it>``: reported times are host seconds at
the speed at which the probe takes ``REFERENCE_PROBE_S``.  Probe time
itself is excluded.

Set-up is not rescaled: measured here, its time did not follow the
probe's (it is mostly imports: file reads, dynamic loading, page faults).
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import nullcontext

#: Probe duration that defines the reference speed.
REFERENCE_PROBE_S = 0.001
#: Smallest gap between probes inside the timed section.
PROBE_EVERY_S = 0.02
#: A stretch is scaled by the median of this many latest probes: one
#: probe is noisy, while the speed drifts over seconds.
PROBE_WINDOW = 5

_TABLE_SIZE = 4096
_PASSES = 5


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class SpeedMeter:
    """Probe runs plus the speed-normalised latency of each cell."""

    def __init__(self, tracer=None) -> None:
        keys = list(range(_TABLE_SIZE))
        random.Random(0).shuffle(keys)
        self._keys = keys
        self._table = {key: _Item(key) for key in keys}
        self._tracer = tracer
        #: ``(start, end)`` of every probe run, perf_counter seconds,
        #: and the factor for the work that follows each.
        self.runs: list[tuple[float, float]] = []
        self._factors: list[float] = []
        #: Normalised host seconds of every simulated cell.
        self.cell_seconds: list[float] = []

    def probe(self) -> None:
        table, keys = self._table, self._keys
        with (self._tracer.span("bench.probe") if self._tracer
              else nullcontext()):
            start = time.perf_counter()
            total = 0
            for _ in range(_PASSES):
                for key in keys:
                    total += table[key].value
            end = time.perf_counter()
        self.runs.append((start, end))
        self._factors.append(REFERENCE_PROBE_S / statistics.median(
            e - s for s, e in self.runs[-PROBE_WINDOW:]))

    def calibrate(self) -> None:
        """Fill the probe window before the timed section starts."""
        for _ in range(PROBE_WINDOW):
            self.probe()

    @property
    def scale(self) -> float:
        """Factor for work done after the latest probe."""
        return self._factors[-1]

    @property
    def median_scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(
            end - start for start, end in self.runs)

    def progress(self, outcome, done: int, total: int) -> None:
        """``run_campaign`` progress hook: record the cell, then probe
        if the last probe is ``PROBE_EVERY_S`` old."""
        del done, total
        if outcome.ok and not outcome.cached:
            self.cell_seconds.append(outcome.elapsed * self.scale)
        if time.perf_counter() - self.runs[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def net(self, start: float, end: float) -> float:
        """Raw seconds of ``[start, end]`` outside probe runs."""
        inside = sum(min(end, e) - max(start, s) for s, e in self.runs
                     if s < end and e > start)
        return end - start - inside

    def rescale(self, start: float, end: float) -> float:
        """Normalised seconds of ``[start, end]``, which must begin
        after a probe: each stretch between probes is scaled by the
        factor of the probe before it."""
        total = 0.0
        cursor = start
        factor = None
        for (probe_start, probe_end), this in zip(self.runs,
                                                  self._factors):
            if probe_end <= start:
                factor = this
                continue
            if probe_start >= end:
                break
            total += (probe_start - cursor) * factor
            cursor, factor = probe_end, this
        return total + (end - cursor) * factor
