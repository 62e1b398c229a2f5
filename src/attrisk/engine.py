"""Risk-attribution mathematics.

Splits a climate anomaly into natural and anthropogenic components, maps each
through a dose-response relationship (linear coefficient or monotone cubic
response surface), and propagates input uncertainty into a full distribution
of the anthropogenic excess risk. Excess risk is carried in percent; the
relative-risk multiplier is dimensionless. An input of dispersion 0 is a point
mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .uq import EmpiricalDistribution, RandomStream, UncertainScalar, sample

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

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

    def interpolant(self) -> PchipInterpolator:
        """The monotone cubic through the knots; beyond them it continues its
        end cubics."""
        if self.kind is not ResponseKind.SURFACE:
            raise ValueError("interpolant is defined for surface dose-responses only")
        # Imported here so that linear runs never load scipy (most of the
        # CLI's cold start).
        from scipy.interpolate import PchipInterpolator

        xs = np.array([d for d, _ in self.knots])
        ys = np.array([rr for _, rr in self.knots])
        return PchipInterpolator(xs, ys)


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
    the interpolant itself, rr(D0) - rr(0) and rr(D0+D') - rr(D0).
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
    natural = 100.0 * (float(rr(d0)) - float(rr(0.0)))
    anthropogenic = 100.0 * (float(rr(d_total)) - float(rr(d0)))
    return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)


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
    return EmpiricalDistribution._from_owned(product)


def anthropogenic_exceedance_fraction(dprime_draws: np.ndarray, total: float) -> float:
    """Fraction of D' draws exceeding the total anomaly (negative-D0 draws).

    Takes the D' draws a run propagates rather than drawing its own, so the
    fraction refers to exactly the draws behind the reported distribution.
    """
    return np.count_nonzero(dprime_draws > total) / dprime_draws.size


def analytic_product_moments(a: UncertainScalar, b: UncertainScalar) -> tuple[float, float]:
    """Exact mean and variance of the product of two independent normals
    (also exact when either is a point mass)."""
    mean = a.value * b.value
    variance = (a.value ** 2 * b.dispersion ** 2
                + b.value ** 2 * a.dispersion ** 2
                + a.dispersion ** 2 * b.dispersion ** 2)
    return mean, variance
