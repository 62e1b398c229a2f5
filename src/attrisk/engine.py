"""Risk-attribution mathematics.

Splits a climate anomaly into natural and anthropogenic components, maps each
through a dose response (a linear coefficient ``beta``, or the monotone cubic
``rr`` through a relative-risk table of ``knots``; the kind follows from which
is given), and propagates input uncertainty into a distribution of the
anthropogenic excess risk, in percent. An input of dispersion 0 is a point
mass. Every response is read as X = s·g(D'), a normal multiplier times a
function of the one normal input: linear is s = beta, g(D') = D'; a surface is
s = 1 (a point mass) and g(D') = 100 * (rr(D0 + D') - rr(D0)).
``integral_attribution`` gives the point estimates and ``propagate`` the
distribution, each from the total anomaly and D', whose split D0 = total -
D'.value it checks and makes itself. ``propagate`` turns each Philox chunk of
one n-array into s * D' in place as one ``uq.at_once`` task (the caller and
one helper thread per further CPU take the tasks in turn), which keys its own
draws, s if drawn and then D', and counts the D' draws above the total; a run
of one chunk is one task, run on the calling thread. A surface then sorts D'
and adds D0 as it maps each chunk through whole pieces of the cubic; the
distribution sorts again only what the map leaves out of order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .uq import EmpiricalDistribution, UncertainScalar, chunk_sampler, map_chunks, sort_in_place

# Stream labels deriving the two independent input streams from one seed.
BETA_STREAM = 1
DPRIME_STREAM = 2

_UNIT = UncertainScalar(1.0)  # a surface's s: a point mass, which keys no generator


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


def _natural(total: float, anthropogenic: UncertainScalar) -> float:
    """D0 = total - anthropogenic.value, the natural part of a total anomaly
    (sigma units) that must be finite and >= 0. An anthropogenic central value
    above the total is allowed: it leaves a negative D0, which a surface
    refuses and a linear response scales, and the report states the share of
    D' draws above the total."""
    if not math.isfinite(total):
        raise ValueError("total anomaly must be finite")
    if total < 0:
        raise ValueError(f"total anomaly must be >= 0 (positive = adverse), got {total}")
    return total - anthropogenic.value


def integral_attribution(response: DoseResponse, total: float,
                         anthropogenic: UncertainScalar) -> RiskAttribution:
    """Excess risk as s times g's rise over [0, D0] and [D0, D0+D']: beta * D0
    and beta * D' for a linear response (a negative D0 is allowed), and for a
    surface 100 times rr(D0) - rr(0) and rr(D0+D') - rr(D0), where D0 >= 0 and
    D0+D' is at most the last knot.
    """
    natural, anthropogenic = _natural(total, anthropogenic), anthropogenic.value
    if response.rr is not None:
        d_total = natural + anthropogenic
        last = response.knots[-1][0]
        if natural < 0:
            raise ValueError(f"natural component {natural} is below the surface domain")
        if d_total > last:
            raise ValueError(f"anomaly {d_total} exceeds the last surface knot at D={last}")
        # rr(0) is 1.0 exactly: the first piece at offset 0 is its constant term,
        # the knot (0, 1), and DoseResponse refuses non-finite coefficients.
        rr_d0, rr_total = response.rr(np.array([natural, d_total])).tolist()
        natural, anthropogenic = 100.0 * (rr_d0 - 1.0), 100.0 * (rr_total - rr_d0)
    s = (response.beta or _UNIT).value  # a surface's 1.0 * x is x, bit for bit
    natural, anthropogenic = s * natural, s * anthropogenic
    return RiskAttribution(natural, anthropogenic, 1.0 + (natural + anthropogenic) / 100.0)


def propagate(response: DoseResponse, total: float, anthropogenic: UncertainScalar,
              seed: int, n: int) -> tuple[EmpiricalDistribution, float]:
    """The anthropogenic excess risk s_i * g(D'_i) from n draws of D'
    (DPRIME_STREAM) and s (BETA_STREAM), and the fraction of D' draws above
    the total anomaly. Each chunk of one n-array is drawn, counted and
    multiplied by s in place as one task, on one thread: a drawn s into
    scratch, then D'; a point mass is its value. A surface's D' is then sorted
    and each chunk mapped in place, D0 added first (sort(D') + D0 has
    sort(D0 + D')'s bits), through whole pieces of rr. The distribution takes
    the array over and sorts what is still out of order: any product array,
    and an excess that a falling or turning surface, draws past the knots, or
    rounding at a knot leave out of order."""
    d0 = _natural(total, anthropogenic)
    out = np.empty(n)  # next: a count too large to allocate fails before any draw
    draw_dprime = chunk_sampler(anthropogenic, seed, DPRIME_STREAM)
    s, rr = response.beta or _UNIT, response.rr
    draw_s = chunk_sampler(s, seed, BETA_STREAM)

    def draw(i: int, chunk: np.ndarray) -> int:
        if s.dispersion:
            s_i = np.empty(chunk.size)
            draw_s(i, s_i)
        else:
            s_i = s.value
        draw_dprime(i, chunk)
        above = np.count_nonzero(chunk > total)
        chunk *= s_i
        return above

    above = sum(map_chunks(draw, out))
    if rr is not None:
        sort_in_place(out)
        rr0 = float(rr(d0))

        def excess(i: int, chunk: np.ndarray) -> None:
            chunk += d0
            # Mapped in halves, map_sorted's scratch is one chunk per thread.
            half = -(-chunk.size // 2)
            rr.map_sorted(chunk[:half])
            rr.map_sorted(chunk[half:])
            chunk -= rr0
            chunk *= 100.0

        map_chunks(excess, out)
    return EmpiricalDistribution(out), above / n


def analytic_product_moments(a: UncertainScalar, b: UncertainScalar) -> tuple[float, float]:
    """Exact mean and variance of the product of two independent normals
    (also exact when either is a point mass)."""
    mean = a.value * b.value
    variance = (a.value ** 2 * b.dispersion ** 2
                + b.value ** 2 * a.dispersion ** 2
                + a.dispersion ** 2 * b.dispersion ** 2)
    return mean, variance
