"""Risk-attribution mathematics.

Splits a climate anomaly into natural and anthropogenic components, maps each
through a dose response (a linear coefficient ``beta``, or the monotone cubic
``rr`` through a relative-risk table of ``knots``; the kind follows from which
of the two is given), and propagates input uncertainty into a full
distribution of the anthropogenic excess risk. Each question is one call on
(response, decomposition), for either kind: ``integral_attribution`` gives the
point estimates and ``propagate`` the distribution. Excess risk is carried in
percent; the relative-risk multiplier is dimensionless. An input of dispersion
0 is a point mass. ``propagate`` turns each Philox chunk of one n-array into
its excess risk in place, on the ``uq`` pool, and counts the D' draws above
the total anomaly on the way. A surface run sorts D0 + D' before it maps it,
so each chunk evaluates whole pieces of the cubic, and the distribution sorts
its excess again only if the map breaks its order. Both sorts are
``uq.sort_in_place``, on the pool for a large n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .uq import (
    EmpiricalDistribution,
    RandomStream,
    UncertainScalar,
    chunk_sampler,
    map_chunks,
    sort_in_place,
)

# Stream labels deriving the two independent input streams from one seed.
BETA_STREAM = 1
DPRIME_STREAM = 2


class SignConventionError(ValueError):
    """Anomaly magnitudes are positive-adverse; negative totals are rejected."""


class DomainCoverageError(ValueError):
    """The response surface does not cover the requested anomaly range."""


@dataclass(frozen=True)
class AnomalyDecomposition:
    """An anomaly (sigma units) split into natural and anthropogenic parts."""

    total: float
    anthropogenic: UncertainScalar
    natural: float


def decompose_anomaly(total: float, anthropogenic: UncertainScalar) -> AnomalyDecomposition:
    """Split a total anomaly into natural = total - anthropogenic.value and D'.

    An anthropogenic central value exceeding the total is a warning, not an
    error: sampled draws may exceed it anyway and are handled downstream.
    """
    if not math.isfinite(total):
        raise ValueError("total anomaly must be finite")
    if total < 0:
        raise SignConventionError(
            f"total anomaly must be >= 0 (positive = adverse), got {total}")
    if anthropogenic.value > total:
        warnings.warn(f"anthropogenic central value {anthropogenic.value} exceeds "
                      f"total anomaly {total}; natural component is negative", stacklevel=2)
    return AnomalyDecomposition(total, anthropogenic, total - anthropogenic.value)


class Pchip:
    """scipy's PchipInterpolator in numpy, bit for bit: Fritsch & Butland knot
    slopes with Moler's ends (two knots give the line), as power-form pieces c
    (highest degree first) evaluated in scipy's PPoly order. Beyond the knots
    it continues its end cubics."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if x.size > 2:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            flat_or_turning = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            # A zero slope divides by 0 and a subnormal one overflows; np.where
            # drops the first, and the second's inf mean gives the slope 0.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d[1:-1] = np.where(flat_or_turning, 0.0,
                                   1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            # Moler's one-sided three-point ends, kept shape-preserving.
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(
                (np.sign(m0) != np.sign(m1)) & (abs(e) > 3.0 * abs(m0)), 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, v) -> np.ndarray:
        """The cubic at any v, in v's shape: map_sorted on a sorted copy."""
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, axis=None, kind="stable")
        y = v.ravel()[order]
        self.map_sorted(y)
        out = np.empty(v.shape)
        out.flat[order] = y
        return out

    def map_sorted(self, v: np.ndarray) -> None:
        """``v[:]`` = the cubic at v, for non-decreasing v: each piece's run of v
        at once, with its four scalar coefficients and two v-sized scratch
        arrays, in scipy's PPoly order."""
        a, b = np.empty((2, v.size))
        # Piece p starts at the first value at or above inner knot x[p].
        ends = np.searchsorted(v, self.x[1:-1], side="left").tolist() + [v.size]
        start = 0
        for p, end in enumerate(ends):
            if end > start:
                c0, c1, c2, c3 = self.c[:, p].tolist()
                y, s, ss = v[start:end], a[:end - start], b[:end - start]
                np.subtract(y, self.x[p], out=s)
                np.multiply(s, s, out=ss)
                np.multiply(s, c2, out=y)
                y += c3
                s *= ss
                ss *= c1
                y += ss
                s *= c0
                y += s
            start = end


@dataclass(frozen=True)
class DoseResponse:
    """Dose-response mapping: a linear excess-risk coefficient ``beta`` or a
    tabulated relative-risk surface ``knots``, exactly one of the two. A
    surface's monotone cubic ``rr`` (continuing its end cubics beyond the
    knots) is built once, so a run's point estimate and propagation share it."""

    beta: UncertainScalar | None = None
    knots: tuple[tuple[float, float], ...] = ()
    rr: Pchip | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.beta is not None:
            if self.knots:
                raise ValueError("dose-response takes beta or knots, not both")
            return
        knots = tuple((float(d), float(rr)) for d, rr in self.knots)
        if len(knots) < 2:
            raise ValueError("surface needs at least 2 knots")
        ds = [d for d, _ in knots]
        if any(a >= b for a, b in zip(ds, ds[1:])):
            raise ValueError("surface knots must be strictly increasing in D")
        if ds[0] != 0.0 or knots[0][1] != 1.0:
            raise ValueError("surface must start at knot (0, 1): relative risk is 1 at D=0")
        if any(rr <= 0 for _, rr in knots):
            raise ValueError("surface relative risks must be > 0")
        # Knots a subnormal distance apart, or relative risks near the float
        # limit, overflow the cubic's slopes: refuse them before any draw.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cubic = Pchip(np.array(ds), np.array([rr for _, rr in knots]))
        if not np.isfinite(cubic.c).all():
            raise ValueError("the cubic through these knots leaves the float range")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rr", cubic)


@dataclass(frozen=True)
class RiskAttribution:
    """Natural and anthropogenic excess risk (percent) and the total P/P0."""

    natural_excess: float
    anthropogenic_excess: float
    total_relative_risk: float


def integral_attribution(response: DoseResponse, decomp: AnomalyDecomposition) -> RiskAttribution:
    """Excess risk as the integral of the dose-response slope over [0, D0] and
    [D0, D0+D']: beta * D0 and beta * D' for a linear response (a negative D0,
    already warned of, is allowed), and for a surface the differences of rr
    itself, rr(D0) - rr(0) and rr(D0+D') - rr(D0), where D0 >= 0 and D0+D' is at
    most the last knot.
    """
    if response.beta is not None:
        natural = response.beta.value * decomp.natural
        anthropogenic = response.beta.value * decomp.anthropogenic.value
        return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)
    d0 = decomp.natural
    d_total = decomp.natural + decomp.anthropogenic.value
    last = response.knots[-1][0]
    if d0 < 0:
        raise DomainCoverageError(f"natural component {d0} is below the surface domain")
    if d_total > last:
        raise DomainCoverageError(
            f"anomaly {d_total} exceeds the last surface knot at D={last}")

    rr_0, rr_d0, rr_total = response.rr(np.array([0.0, d0, d_total])).tolist()
    natural = 100.0 * (rr_d0 - rr_0)
    anthropogenic = 100.0 * (rr_total - rr_d0)
    return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)


def propagate(response: DoseResponse, decomp: AnomalyDecomposition, seed: int,
              n: int) -> tuple[EmpiricalDistribution, float]:
    """The anthropogenic excess risk, beta_i * D'_i or 100 * (rr(D0 + D'_i) - rr(D0))
    from n draws of D' (DPRIME_STREAM) and beta (BETA_STREAM), and the fraction
    of D' draws above the total anomaly. Each chunk of one n-array is drawn,
    counted and turned into its product or D0 + D' in place on the pool.
    D0 + D' is sorted before the map, so each chunk maps whole pieces of rr.
    The distribution sorts what is still out of order: any product array, and
    an excess that a falling or turning surface, draws past the knots, or
    rounding at a knot leave out of order."""
    draw_dprime = chunk_sampler(decomp.anthropogenic, RandomStream(seed, DPRIME_STREAM), n)
    beta, rr = response.beta, response.rr
    if beta is not None:
        draw_beta = chunk_sampler(beta, RandomStream(seed, BETA_STREAM), n)

    def draw(i: int, chunk: np.ndarray) -> int:
        draw_dprime(i, chunk)
        above = np.count_nonzero(chunk > decomp.total)
        if beta is None:
            chunk += decomp.natural
        else:
            betas = np.empty(chunk.size)
            draw_beta(i, betas)
            chunk *= betas
        return above

    out = np.empty(n)
    above = sum(map_chunks(draw, out))
    if beta is not None:
        return EmpiricalDistribution._from_owned(out), above / n

    sort_in_place(out)
    rr0 = float(rr(decomp.natural))

    def excess(i: int, chunk: np.ndarray) -> None:
        # Mapped in halves, map_sorted's scratch is one chunk per thread.
        half = -(-chunk.size // 2)
        rr.map_sorted(chunk[:half])
        rr.map_sorted(chunk[half:])
        chunk -= rr0
        chunk *= 100.0

    map_chunks(excess, out)
    return EmpiricalDistribution._from_owned(out), above / n


def analytic_product_moments(a: UncertainScalar, b: UncertainScalar) -> tuple[float, float]:
    """Exact mean and variance of the product of two independent normals
    (also exact when either is a point mass)."""
    mean = a.value * b.value
    variance = (a.value ** 2 * b.dispersion ** 2
                + b.value ** 2 * a.dispersion ** 2
                + a.dispersion ** 2 * b.dispersion ** 2)
    return mean, variance
