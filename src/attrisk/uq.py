"""Uncertain scalars, deterministic sampling, and empirical-distribution statistics.

A stream is identified by (seed, label), and ``chunk_sampler`` alone defines
it: its draws come in chunks of CHUNK_SIZE, chunk i from numpy's
Generator(Philox(SeedSequence(seed, spawn_key=(label, i)))). So each draw is a
pure function of (seed, label, its index), and distinct labels are independent
streams: the label is part of the key, not an offset. Every parallel job goes
through ``at_once(*tasks)``: the caller and one helper thread per further CPU
take the tasks in turn. ``map_chunks`` runs each chunk's work (its draws,
and what is made of them in place) as one task, which keys its own chunk on
the thread that fills it; the result is bit-identical to doing the chunks one
after another, and the first n draws do not depend on how many more are
requested later. A quantity of dispersion 0 is a point mass and draws nothing.

``EmpiricalDistribution(samples)`` takes over its float64 array without a copy: it
sorts it in place with ``sort_in_place`` unless it is non-decreasing (a large one as
two half-sorts at once), refuses a non-finite sample and makes the array
read-only. ``summarize`` reads the percentiles named in SUMMARY_LEVELS and the mean.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

#: Draws per independently-keyed chunk. Fixed: changing it changes streams.
CHUNK_SIZE = 1 << 16

#: The summary statistics by name, in the report's order, and the level each is read at.
SUMMARY_LEVELS = {"median": 0.5, "q25": 0.25, "q75": 0.75, "p05": 0.05, "p95": 0.95,
                  "p005": 0.005, "p995": 0.995}

#: The smallest array ``sort_in_place`` splits into two tasks: a power of two
#: above the crossover on 2 cores (the two-thread sort is already faster at 5e5
#: values), so runs of 1e6 samples sort on two threads.
POOL_SORT_MIN = 1 << 19

#: The usable CPUs; CPU affinity is Linux-only, elsewhere it is the CPU count.
_workers: int = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)


def at_once(*tasks: Callable[[], object]) -> list:
    """``[task() for task in tasks]``: the caller and up to _workers - 1 helper
    threads it starts take the next unstarted task in turn, under the caller's
    numpy error state; one task or one worker runs inline, in order. A call from
    inside a task starts helpers of its own. It joins its helpers before it
    returns or raises (unless interrupted in the join), so no task still writes
    into the caller's arrays; after a failure, a helper that cannot start included,
    no task starts, and the lowest-indexed task's error, else the caller's, is raised."""
    if len(tasks) < 2 or _workers < 2:
        return [task() for task in tasks]
    errors, lock = np.geterr(), threading.Lock()
    unstarted = iter(range(len(tasks)))
    results, failed, helpers = [None] * len(tasks), {}, []

    def take_turns() -> None:
        while True:
            with lock:
                i = None if failed else next(unstarted, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException as exc:
                failed[i] = exc

    try:
        for _ in range(min(_workers, len(tasks)) - 1):
            # A helper takes turns under the caller's error state, as the caller does.
            helper = threading.Thread(target=np.errstate(**errors)(take_turns))
            helper.start()
            helpers.append(helper)
        take_turns()
    except BaseException as exc:  # a helper that cannot start, or an interrupt
        failed[len(tasks)] = exc  # outside a task: after every task's error
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[min(failed)]
    return results


def map_chunks(work: Callable[[int, np.ndarray], object], out: np.ndarray) -> list:
    """``work(i, chunk)`` for each CHUNK_SIZE view into out, as ``at_once`` tasks."""
    return at_once(*(partial(work, i, out[lo:lo + CHUNK_SIZE])
                     for i, lo in enumerate(range(0, out.size, CHUNK_SIZE))))


@dataclass(frozen=True)
class UncertainScalar:
    """A normal scalar: a central value and a one-standard-deviation
    dispersion; dispersion 0 is a point mass at the value."""

    value: float
    dispersion: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if not math.isfinite(self.dispersion) or self.dispersion < 0:
            raise ValueError(f"dispersion must be finite and >= 0, got {self.dispersion}")


def chunk_sampler(q: UncertainScalar, seed: int, label: int) -> Callable[[int, np.ndarray], None]:
    """``draw(i, chunk)`` fills the i-th chunk of draws of q in place from the
    stream (seed, label): q.value + q.dispersion times the standard normals of
    Generator(Philox(SeedSequence(seed, spawn_key=(label, i)))), keyed by draw
    itself, on the thread that fills the chunk; a point mass keys no generator."""
    if q.dispersion == 0:
        return lambda i, chunk: chunk.fill(q.value)

    def draw(i: int, chunk: np.ndarray) -> None:
        Generator(Philox(SeedSequence(seed, spawn_key=(label, i)))).standard_normal(out=chunk)
        chunk *= q.dispersion
        chunk += q.value

    return draw


def sort_in_place(a: np.ndarray) -> None:
    """``a.sort()`` for a 1-d float array; from POOL_SORT_MIN values up, with two
    or more workers, partitioned at its middle and both halves sorted at once.
    The bytes are np.sort's, but mixed -0.0 and +0.0 may come in another order,
    which np.sort leaves unspecified too."""
    if a.size < POOL_SORT_MIN or _workers < 2:
        a.sort()
        return
    m = a.size // 2
    a.partition(m)
    at_once(a[:m].sort, a[m:].sort)


def _ascending(a: np.ndarray) -> bool:
    """Whether a is non-decreasing (never, if it holds a NaN)."""
    return bool(np.all(a[:-1] <= a[1:]))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted, finite sample-based distribution. It takes over the 1-d float64
    array it is given, without a copy: sorted in place unless non-decreasing
    (checked window by window, to the first out of order), then made read-only.
    Anything but a float64 ndarray, such as a list or an int64 array, is refused."""

    samples: np.ndarray

    def __post_init__(self):
        arr = self.samples
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise ValueError("samples must be a float64 ndarray")
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 samples")
        if not all(_ascending(arr[lo:lo + CHUNK_SIZE + 1])
                   for lo in range(0, arr.size - 1, CHUNK_SIZE)):
            sort_in_place(arr)
        # In order, -inf comes first and +inf and NaN last, so the ends tell.
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False

    @property
    def sample_count(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def variance(self) -> float:
        """Population variance, its squared deviations summed per chunk so no
        n-sized temporary is made."""
        mean = self.samples.mean()
        total = 0.0
        for lo in range(0, self.samples.size, CHUNK_SIZE):
            dev = self.samples[lo:lo + CHUNK_SIZE] - mean
            total += float(np.dot(dev, dev))
        return total / self.samples.size


@dataclass(frozen=True)
class BoxWhiskerSummary:
    """Median, quartiles, 90- and 99-centile ranges (SUMMARY_LEVELS), and the mean."""

    median: float
    q25: float
    q75: float
    p05: float
    p95: float
    p005: float
    p995: float
    mean: float

    def __post_init__(self):
        ordered = tuple(getattr(self, k) for k in sorted(SUMMARY_LEVELS, key=SUMMARY_LEVELS.get))
        if any(a > b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"percentiles out of order: {ordered}")


def percentile(d: EmpiricalDistribution, q: float) -> float:
    """Percentile by linear interpolation at rank h = q * (n - 1)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    n = d.sample_count
    h = q * (n - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    a = float(d.samples[lo])
    if lo == hi:
        return a
    b = float(d.samples[hi])
    # clamped lerp: keeps the result in [a, b] so percentile is monotone in q
    return min(max(a + (h - lo) * (b - a), a), b)


def summarize(d: EmpiricalDistribution) -> BoxWhiskerSummary:
    return BoxWhiskerSummary(**{name: percentile(d, q) for name, q in SUMMARY_LEVELS.items()},
                             mean=d.mean)


def tail_probability(d: EmpiricalDistribution, threshold: float) -> float:
    """Fraction of samples at or below the threshold (one-sided MC p-value)."""
    return int(np.searchsorted(d.samples, threshold, side="right")) / d.sample_count


def histogram(d: EmpiricalDistribution, bin_count: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; last bin's upper edge is inclusive.

    An all-identical sample yields a single degenerate zero-width bin.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo = float(d.samples[0])
    hi = float(d.samples[-1])
    if lo == hi:
        return [(lo, hi, d.sample_count)]
    # np.histogram's edges and half-open bins, counted on the sorted samples.
    edges = np.linspace(lo, hi, bin_count + 1)
    cuts = np.concatenate(([0], np.searchsorted(d.samples, edges[1:-1], side="left"),
                           [d.sample_count]))
    bounds = edges.tolist()
    return list(zip(bounds[:-1], bounds[1:], np.diff(cuts).tolist()))
