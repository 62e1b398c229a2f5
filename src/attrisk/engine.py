"""Risk-attribution mathematics.

Splits a climate anomaly into natural and anthropogenic components, maps each
through a dose response (a linear coefficient ``beta``, or the monotone cubic
``rr`` through a relative-risk table of ``knots``; the kind follows from which
of the two is given), and propagates input uncertainty into a full
distribution of the anthropogenic excess risk. Excess risk is carried in
percent; the relative-risk multiplier is dimensionless. An input of dispersion
0 is a point mass. ``propagate`` turns each Philox chunk of one n-array into
its excess risk in place, on the ``uq`` pool, and counts the D' draws above
the total anomaly on the way.
"""

from __future__ import annotations

import math
import warnings
import copy
from dataclasses import dataclass, field

import numpy as np

from .uq import EmpiricalDistribution, RandomStream, UncertainScalar, chunk_sampler, map_chunks

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
            with np.errstate(divide="ignore", invalid="ignore"):
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

    def __call__(self, v):
        # The piece is the count of inner knots at or below v.
        i = np.searchsorted(self.x[1:-1], v, side="right")
        c0, c1, c2, c3 = self.c
        s = v - self.x[i]
        ss = s * s
        return ((c3[i] + c2[i] * s) + c1[i] * ss) + c0[i] * (ss * s)

    def derivative(self) -> "Pchip":
        """The slope, whose integral over an interval is the cubic's difference."""
        slope = copy.copy(self)
        c0, c1, c2, _ = self.c
        slope.c = np.stack((np.zeros_like(c0), 3 * c0, 2 * c1, c2))
        return slope


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
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rr", Pchip(np.array(ds), np.array([rr for _, rr in knots])))


@dataclass(frozen=True)
class RiskAttribution:
    """Natural and anthropogenic excess risk (percent) and the total P/P0."""

    natural_excess: float
    anthropogenic_excess: float
    total_relative_risk: float


def linear_attribution(beta: float, decomp: AnomalyDecomposition) -> RiskAttribution:
    """Excess risk under the linear relative-risk approximation."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    natural = beta * decomp.natural
    anthropogenic = beta * decomp.anthropogenic.value
    return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)


def integral_attribution(response: DoseResponse, decomp: AnomalyDecomposition) -> RiskAttribution:
    """Excess risk as the integral of the surface slope over each component.

    The slope integrates over [0, D0] and [D0, D0+D'] to the differences of
    the surface rr itself, rr(D0) - rr(0) and rr(D0+D') - rr(D0).
    """
    if response.beta is not None:
        raise ValueError("integral_attribution requires a surface dose-response")
    d0 = decomp.natural
    d_total = decomp.natural + decomp.anthropogenic.value
    last = response.knots[-1][0]
    if d0 < 0:
        raise DomainCoverageError(f"natural component {d0} is below the surface domain")
    if d_total > last:
        raise DomainCoverageError(
            f"anomaly {d_total} exceeds the last surface knot at D={last}")

    rr = response.rr
    natural = 100.0 * (float(rr(d0)) - float(rr(0.0)))
    anthropogenic = 100.0 * (float(rr(d_total)) - float(rr(d0)))
    return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)


def propagate_attribution(beta: UncertainScalar, dprime: UncertainScalar,
                          seed: int, n: int) -> EmpiricalDistribution:
    """Distribution of the anthropogenic excess risk beta_i * D'_i (percent),
    the inputs drawn from fixed-label substreams of the single seed."""
    # A total of at least D' warns of nothing and does not enter beta * D'.
    decomp = decompose_anomaly(max(dprime.value, 0.0), dprime)
    return propagate(DoseResponse(beta=beta), decomp, seed, n)[0]


# Values per PCHIP call in a chunk: its temporaries stay below a chunk's size.
_PCHIP_BLOCK = 8192


def propagate(response: DoseResponse, decomp: AnomalyDecomposition, seed: int,
              n: int) -> tuple[EmpiricalDistribution, float]:
    """The anthropogenic excess risk, beta_i * D'_i or 100 * (rr(D0 + D'_i) - rr(D0))
    from n draws of D' (DPRIME_STREAM) and beta (BETA_STREAM), and the fraction
    of D' draws above the total anomaly. Each chunk of one n-array is drawn,
    counted and mapped in place on the pool, then the array is sorted."""
    draw_dprime = chunk_sampler(decomp.anthropogenic, RandomStream(seed, DPRIME_STREAM), n)
    beta, rr = response.beta, response.rr
    if beta is not None:
        draw_beta = chunk_sampler(beta, RandomStream(seed, BETA_STREAM), n)
    else:
        rr0 = float(rr(decomp.natural))

    def finish(i: int, chunk: np.ndarray) -> int:
        draw_dprime(i, chunk)
        above = np.count_nonzero(chunk > decomp.total)
        if beta is None:
            chunk += decomp.natural
            for lo in range(0, chunk.size, _PCHIP_BLOCK):
                chunk[lo:lo + _PCHIP_BLOCK] = rr(chunk[lo:lo + _PCHIP_BLOCK])
            chunk -= rr0
            chunk *= 100.0
        else:
            betas = np.empty(chunk.size)
            draw_beta(i, betas)
            chunk *= betas
        return above

    out = np.empty(n)
    above = sum(map_chunks(finish, out))
    return EmpiricalDistribution._from_owned(out), above / n


def analytic_product_moments(a: UncertainScalar, b: UncertainScalar) -> tuple[float, float]:
    """Exact mean and variance of the product of two independent normals
    (also exact when either is a point mass)."""
    mean = a.value * b.value
    variance = (a.value ** 2 * b.dispersion ** 2
                + b.value ** 2 * a.dispersion ** 2
                + a.dispersion ** 2 * b.dispersion ** 2)
    return mean, variance
