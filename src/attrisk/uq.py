"""Uncertain scalars, deterministic sampling, and empirical-distribution statistics.

Sampling is built on the Philox counter-based bit generator so that the i-th
draw of a stream is a pure function of (seed, stream label, i): draws are
produced in fixed-size chunks, each keyed independently. ``map_chunks`` runs
each chunk's work (draw, then finish in place) on a shared thread pool; the
result is bit-identical to doing the chunks one after another, and the first n
draws do not depend on how many more are requested later. A quantity of
dispersion 0 is a point mass and draws nothing.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

#: Draws per independently-keyed chunk. Fixed: changing it changes streams.
CHUNK_SIZE = 1 << 16

#: The process-wide chunk-filling pool, one worker per usable CPU.
_pool: ThreadPoolExecutor


def _start_pool() -> None:
    # At import, and again in a forked child, which inherits the executor but
    # none of its threads. No thread starts until the first map. CPU affinity
    # is Linux-only; elsewhere the pool takes the CPU count.
    global _pool
    affinity = getattr(os, "sched_getaffinity", None)
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="attrisk-philox")


_start_pool()
if hasattr(os, "register_at_fork"):  # Unix only
    os.register_at_fork(after_in_child=_start_pool)


def map_chunks(work: Callable[[int, np.ndarray], object], out: np.ndarray) -> list:
    """``work(i, chunk)`` for each CHUNK_SIZE view into out, on the pool when
    there is more than one; the results in order (re-raising a worker's error)."""
    chunks = [out[lo:lo + CHUNK_SIZE] for lo in range(0, out.size, CHUNK_SIZE)]
    if len(chunks) == 1:
        return [work(0, chunks[0])]
    return list(_pool.map(work, range(len(chunks)), chunks))


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


@dataclass(frozen=True)
class RandomStream:
    """A reproducible stream of draws identified by (seed, label).

    Distinct labels under the same seed give statistically independent
    streams; the label is part of the Philox key, not an offset.
    """

    seed: int
    label: int = 0

    def generators(self, n: int) -> list[Generator]:
        """One generator per chunk of the first n draws, keyed (seed, label, i);
        every draw starts here, on the calling thread, so workers only fill."""
        return [Generator(Philox(SeedSequence(self.seed, spawn_key=(self.label, i))))
                for i in range(-(-n // CHUNK_SIZE))]


def chunk_sampler(q: UncertainScalar, stream: RandomStream,
                  n: int) -> Callable[[int, np.ndarray], None]:
    """``draw(i, chunk)`` fills the i-th chunk of n draws of q in place; a point
    mass keys no generator."""
    if q.dispersion == 0:
        return lambda i, chunk: chunk.fill(q.value)
    gens = stream.generators(n)

    def draw(i: int, chunk: np.ndarray) -> None:
        gens[i].standard_normal(out=chunk)
        chunk *= q.dispersion
        chunk += q.value

    return draw


def sample(q: UncertainScalar, stream: RandomStream, n: int) -> np.ndarray:
    """Draw n values of q into a new array the caller owns.

    A point mass returns the value exactly, n times.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n)
    map_chunks(chunk_sampler(q, stream, n), out)
    return out


def _ascending(a: np.ndarray) -> bool:
    """Whether a is non-decreasing (never, if it holds a NaN)."""
    return bool(np.all(a[:-1] <= a[1:]))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A finalized (sorted, finite) sample-based distribution."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        return cls._from_owned(np.array(samples, dtype=float))

    @classmethod
    def _from_owned(cls, arr: np.ndarray) -> "EmpiricalDistribution":
        """Finalize a float array no one else holds: sorted in place unless it is
        non-decreasing (checked window by window, to the first out of order), then frozen."""
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 samples")
        if not all(_ascending(arr[lo:lo + CHUNK_SIZE + 1])
                   for lo in range(0, arr.size - 1, CHUNK_SIZE)):
            arr.sort()
        # In order, -inf comes first and +inf and NaN last, so the ends tell.
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        return cls(arr)

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
    """Median, quartiles, 90- and 99-centile ranges, and the mean."""

    median: float
    q25: float
    q75: float
    p05: float
    p95: float
    p005: float
    p995: float
    mean: float

    def __post_init__(self):
        ordered = (self.p005, self.p05, self.q25, self.median, self.q75, self.p95, self.p995)
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
    return BoxWhiskerSummary(
        median=percentile(d, 0.5),
        q25=percentile(d, 0.25),
        q75=percentile(d, 0.75),
        p05=percentile(d, 0.05),
        p95=percentile(d, 0.95),
        p005=percentile(d, 0.005),
        p995=percentile(d, 0.995),
        mean=d.mean,
    )


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
    counts = np.diff(cuts)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bin_count)]
