"""Measurement helpers: percentiles, process CPU and memory, intervals.

Everything here is pure or reads ``/proc``; psutil is not required.
"""

from __future__ import annotations

import bisect
import glob
import math
import os
import resource
import statistics
import time

#: Percentiles the tail is chosen from (highest first).
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """``(pct, value, n)`` for the highest ladder percentile that has at
    least ``min_beyond`` samples ranked beyond it.

    With fewer than ``2 * min_beyond`` samples no percentile qualifies and
    the median is returned, so the caller can see from ``pct`` that the
    sample was too small for a tail.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= min_beyond:
            return pct, percentile(samples, pct), n
    return 50.0, percentile(samples, 50.0), n


def median(values) -> float:
    return statistics.median(values)


def central_mean(samples, band: float = 0.1) -> float:
    """Mean of the samples in the central ``band`` around the median.

    A median estimate that moves smoothly: when the samples have two
    modes of about equal weight (a pipelined caller that blocks on every
    other call), the plain median jumps between them from run to run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    low = min(int(n * (0.5 - band / 2)), (n - 1) // 2)
    high = max(int(math.ceil(n * (0.5 + band / 2))), n // 2 + 1)
    middle = ordered[low:high]
    return sum(middle) / len(middle)


# -- host speed ---------------------------------------------------------------------

#: The reference speed: roughly what :func:`host_probe_s` takes on one
#: unloaded 2.1 GHz x86-64 core under CPython 3.11.  Figures are scaled
#: to a host of this speed (see :func:`host_factor`).
PROBE_REFERENCE_S = 0.020


def _probe_kernel() -> int:
    # Interpreter work of the same kind the engine does (tuple keys,
    # dict upserts, float math, a sort) and none of the program's code,
    # so a change to the program never changes the probe.
    table: dict = {}
    get = table.get
    for i in range(10_000):
        key = (i % 977, "x%d" % (i % 131))
        table[key] = get(key, 0.0) + math.exp((i % 60) * 0.1)
    rows = [[key, value] for key, value in table.items()]
    rows.sort(key=repr)
    return len(rows)


def host_probe_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python kernel: this host's speed now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_factor(probe_s: float) -> float:
    """How much slower than the reference host this host ran (>1: slower).

    The host's speed drifts by up to 2x over tens of seconds as
    neighbours come and go; dividing times (and multiplying rates) by
    this factor, measured around each round, removes that drift.
    """
    return probe_s / PROBE_REFERENCE_S


# -- CPU and memory -----------------------------------------------------------------


def self_cpu_s() -> float:
    """User + system CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another live process, all threads.

    Reads the nanosecond run time in ``/proc/<pid>/task/*/schedstat``
    and falls back to the tick counts of ``/proc/<pid>/stat``.  Returns
    0.0 when the process is gone.
    """
    total_ns = 0
    found = False
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as handle:
                total_ns += int(handle.read().split()[0])
            found = True
        except (OSError, ValueError, IndexError):
            continue
    if found:
        return total_ns / 1e9
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at field 3 (state).
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_memory_kb(pid: int | str = "self") -> dict[str, int]:
    """``VmRSS`` and ``VmHWM`` (peak resident set) of a process, in KiB."""
    result = {"VmRSS": 0, "VmHWM": 0}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                if key in result:
                    result[key] = int(rest.split()[0])
    except OSError:
        pass
    return result


# -- open loop ----------------------------------------------------------------------


def generator_lag(due, started, previous_done) -> list[float]:
    """How late the generator itself started each batch.

    A batch cannot start before it is due or before the generator has
    finished sending the previous batch (which may have waited for
    credit: that wait is the system's backpressure, not generator lag).
    """
    return [
        start - max(when, done)
        for when, start, done in zip(due, started, previous_done)
    ]


# -- intervals ----------------------------------------------------------------------


def union(intervals) -> list[tuple[int, int]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


class Coverage:
    """Answers "how much of [lo, hi) do these intervals cover" quickly."""

    def __init__(self, intervals) -> None:
        self._spans = union(intervals)
        self._starts = [start for start, _ in self._spans]

    def covered(self, lo: int, hi: int) -> int:
        if hi <= lo or not self._spans:
            return 0
        first = max(0, bisect.bisect_right(self._starts, lo) - 1)
        last = bisect.bisect_left(self._starts, hi)
        total = 0
        for start, end in self._spans[first:last]:
            total += max(0, min(end, hi) - max(start, lo))
        return total
