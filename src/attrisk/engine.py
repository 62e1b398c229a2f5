"""Risk-attribution mathematics.

Splits a climate anomaly into natural and anthropogenic components, maps each
through a dose-response relationship (linear coefficient or monotone cubic
response surface), and propagates input uncertainty into a full distribution
of the anthropogenic excess risk. Excess risk is carried in percent; the
relative-risk multiplier is dimensionless.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .uq import EmpiricalDistribution, Family, RandomStream, UncertainScalar, sample

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

# Stream labels deriving the two independent input streams from one seed.
BETA_STREAM = 1
DPRIME_STREAM = 2

QUADRATURE_REL_TOL = 1e-9


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


def decompose_anomaly(total: float, anthropogenic: UncertainScalar,
                      strict: bool = False) -> AnomalyDecomposition:
    """Split a total anomaly into natural = total - anthropogenic.value and D'.

    With strict=True an anthropogenic central value exceeding the total is a
    hard error; otherwise it is a warning (sampled draws may exceed it anyway
    and are handled downstream).
    """
    if not math.isfinite(total):
        raise ValueError("total anomaly must be finite")
    if total < 0:
        raise SignConventionError(
            f"total anomaly must be >= 0 (positive = adverse), got {total}")
    if anthropogenic.value > total:
        msg = (f"anthropogenic central value {anthropogenic.value} exceeds "
               f"total anomaly {total}; natural component is negative")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
    return AnomalyDecomposition(total, anthropogenic, total - anthropogenic.value)


class ResponseKind(Enum):
    LINEAR = "linear"
    SURFACE = "surface"


@dataclass(frozen=True)
class DoseResponse:
    """Dose-response mapping: linear excess-risk coefficient or a tabulated
    relative-risk surface interpolated by a monotone piecewise cubic."""

    kind: ResponseKind
    beta: UncertainScalar | None = None
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind is ResponseKind.LINEAR:
            if self.beta is None:
                raise ValueError("linear dose-response requires beta")
        else:
            if len(self.knots) < 2:
                raise ValueError("surface needs at least 2 knots")
            ds = [d for d, _ in self.knots]
            if any(a >= b for a, b in zip(ds, ds[1:])):
                raise ValueError("surface knots must be strictly increasing in D")
            if ds[0] != 0.0 or self.knots[0][1] != 1.0:
                raise ValueError("surface must start at knot (0, 1): relative risk is 1 at D=0")

    @classmethod
    def linear(cls, beta: UncertainScalar) -> "DoseResponse":
        return cls(ResponseKind.LINEAR, beta=beta)

    @classmethod
    def surface(cls, knots) -> "DoseResponse":
        return cls(ResponseKind.SURFACE, knots=tuple((float(d), float(rr)) for d, rr in knots))

    def interpolant(self, extrapolate: bool = False) -> PchipInterpolator:
        if self.kind is not ResponseKind.SURFACE:
            raise ValueError("interpolant is defined for surface dose-responses only")
        # Imported here so that linear runs never load scipy (most of the
        # CLI's cold start).
        from scipy.interpolate import PchipInterpolator

        xs = np.array([d for d, _ in self.knots])
        ys = np.array([rr for _, rr in self.knots])
        return PchipInterpolator(xs, ys, extrapolate=extrapolate)


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


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, rel_tol, scale, depth=40):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * rel_tol * scale:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, rel_tol, scale, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, rel_tol, scale, depth - 1))


def integrate_adaptive(f, a: float, b: float, breakpoints=(),
                       rel_tol: float = QUADRATURE_REL_TOL) -> float:
    """Adaptive composite Simpson quadrature, split at interior breakpoints."""
    if a == b:
        return 0.0
    points = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    scale = max(abs(f(p)) for p in points) * (b - a) + 1e-300
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        m = 0.5 * (lo + hi)
        flo, fm, fhi = f(lo), f(m), f(hi)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        total += _adaptive_simpson(f, lo, hi, flo, fm, fhi, whole, rel_tol, scale)
    return total


def integral_attribution(response: DoseResponse, decomp: AnomalyDecomposition) -> RiskAttribution:
    """Excess risk as the integral of the surface slope over each component.

    Computed by quadrature of the interpolant's derivative over [0, D0] and
    [D0, D0+D'], cross-checked against the direct relative-risk differences
    (analytically the same antiderivative; both paths must agree).
    """
    if response.kind is not ResponseKind.SURFACE:
        raise ValueError("integral_attribution requires a surface dose-response")
    d0 = decomp.natural
    d_total = decomp.natural + decomp.anthropogenic.value
    last = response.knots[-1][0]
    if d0 < 0:
        raise DomainCoverageError(f"natural component {d0} is below the surface domain")
    if d_total > last:
        raise DomainCoverageError(
            f"anomaly {d_total} exceeds the last surface knot at D={last}")

    rr = response.interpolant()
    slope = rr.derivative()
    knot_ds = [d for d, _ in response.knots]

    natural_quad = 100.0 * integrate_adaptive(slope, 0.0, d0, knot_ds)
    anthro_quad = 100.0 * integrate_adaptive(slope, d0, d_total, knot_ds)

    natural_diff = 100.0 * (float(rr(d0)) - float(rr(0.0)))
    anthro_diff = 100.0 * (float(rr(d_total)) - float(rr(d0)))
    scale = max(abs(natural_diff), abs(anthro_diff), 1.0)
    if (abs(natural_quad - natural_diff) > 1e-9 * scale
            or abs(anthro_quad - anthro_diff) > 1e-9 * scale):
        raise ArithmeticError(
            "quadrature and antiderivative-difference paths disagree: "
            f"({natural_quad}, {anthro_quad}) vs ({natural_diff}, {anthro_diff})")

    return RiskAttribution(natural_quad, anthro_quad,
                           1.0 + (natural_quad + anthro_quad) / 100.0)


def propagate_attribution(beta: UncertainScalar, dprime: UncertainScalar,
                          seed: int, n: int) -> EmpiricalDistribution:
    """Distribution of the anthropogenic excess risk beta_i * D'_i (percent).

    The two inputs are drawn independently from fixed-label substreams of the
    single seed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return product_distribution(beta, sample(dprime, RandomStream(seed, DPRIME_STREAM), n), seed)


def product_distribution(beta: UncertainScalar, dprime_draws: np.ndarray,
                         seed: int) -> EmpiricalDistribution:
    """Distribution of beta_i * D'_i for D' draws already taken from the
    DPRIME_STREAM substream; beta is drawn from the BETA_STREAM substream.

    The product is formed and sorted in the beta buffer; dprime_draws is left
    unchanged.
    """
    product = sample(beta, RandomStream(seed, BETA_STREAM), dprime_draws.size)
    product *= dprime_draws
    return EmpiricalDistribution._from_owned(product, seed, units="percent")


def anthropogenic_exceedance_fraction(dprime_draws: np.ndarray, total: float) -> float:
    """Fraction of D' draws exceeding the total anomaly (negative-D0 draws).

    Takes the D' draws a run propagates rather than drawing its own, so the
    fraction refers to exactly the draws behind the reported distribution.
    """
    return np.count_nonzero(dprime_draws > total) / dprime_draws.size


def analytic_product_moments(a: UncertainScalar, b: UncertainScalar) -> tuple[float, float]:
    """Exact mean and variance of the product of two independent normals."""
    if a.family is not Family.NORMAL or b.family is not Family.NORMAL:
        raise ValueError("analytic product moments require Normal inputs")
    mean = a.value * b.value
    variance = (a.value ** 2 * b.dispersion ** 2
                + b.value ** 2 * a.dispersion ** 2
                + a.dispersion ** 2 * b.dispersion ** 2)
    return mean, variance
