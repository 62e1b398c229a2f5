"""Randomized property suites (each >= 200 cases, but for the exact-answer
suites' 100 runs each of up to 6e5 samples)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attrisk.engine import DoseResponse, analytic_product_moments, propagate
from attrisk.uq import (
    CHUNK_SIZE,
    POOL_SORT_MIN,
    SUMMARY_LEVELS,
    BoxWhiskerSummary,
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    summarize,
    tail_probability,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite_floats, min_size=2, max_size=200)


def dist(values):
    return EmpiricalDistribution(np.array(values, dtype=float))


def product(beta, dprime, seed, n):
    """The distribution of beta * D', from a total anomaly no less than D'."""
    return propagate(DoseResponse(beta=beta), max(dprime.value, 0.0), dprime, seed, n)[0]


@settings(max_examples=200, deadline=None)
@given(sample_lists, st.floats(0, 1), st.floats(0, 1))
def test_percentile_monotone_in_q(values, a, b):
    d = dist(values)
    q1, q2 = min(a, b), max(a, b)
    assert percentile(d, q1) <= percentile(d, q2)


@settings(max_examples=200, deadline=None)
@given(sample_lists)
def test_summary_ordering(values):
    s = summarize(dist(values))
    assert s.p005 <= s.p05 <= s.q25 <= s.median <= s.q75 <= s.p95 <= s.p995
    assert isinstance(s, BoxWhiskerSummary)


@settings(max_examples=200, deadline=None)
@given(sample_lists, st.integers(1, 64))
def test_histogram_counts_conserved(values, bins):
    d = dist(values)
    assert sum(count for _, _, count in histogram(d, bins)) == d.sample_count


@st.composite
def binned_samples(draw):
    """Samples spanning [lo, hi] exactly, many on interior bin edges, many tied."""
    bins = draw(st.integers(1, 200))
    lo = draw(finite_floats)
    hi = lo + draw(st.floats(1e-6, 1e6))
    assume(hi > lo)
    edges = np.linspace(lo, hi, bins + 1).tolist()
    value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 40)), max_size=60))
    samples = [lo, hi] + [v for v, repeat in runs for _ in range(repeat)]
    return samples, bins


@settings(max_examples=300, deadline=None)
@given(binned_samples())
def test_histogram_matches_numpy(case):
    samples, bins = case
    d = dist(samples)
    counts, edges = np.histogram(d.samples, bins, range=(d.samples[0], d.samples[-1]))
    got = histogram(d, bins)
    assert [c for _, _, c in got] == counts.tolist()
    assert [lo for lo, _, _ in got] + [got[-1][1]] == edges.tolist()


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(0.01, 10), st.floats(-5, 5),
       st.floats(0.01, 2), st.integers(-8, 8), st.integers(0, 2**31))
def test_propagation_scale_equivariance(bv, bs, dv, ds, log2_k, seed):
    # power-of-two scaling is exact in binary floating point
    k = 2.0 ** log2_k
    base = product(UncertainScalar(bv, bs), UncertainScalar(dv, ds), seed, 256)
    scaled = product(UncertainScalar(k * bv, k * bs), UncertainScalar(dv, ds), seed, 256)
    assert np.array_equal(scaled.samples / k, base.samples)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-10, 10), st.floats(0.01, 5), st.floats(-10, 10),
       st.floats(0.01, 5), st.integers(0, 2**31))
def test_mc_moments_match_analytic_oracle(av, asd, bv, bsd, seed):
    a = UncertainScalar(av, asd)
    b = UncertainScalar(bv, bsd)
    mean, var = analytic_product_moments(a, b)
    n = 50_000
    d = product(a, b, seed, n)
    assert abs(d.mean - mean) < 5 * math.sqrt(var / n)
    assert abs(d.variance - var) < 10 * var / math.sqrt(n)


#: Standard errors a Monte Carlo statistic may lie from the exact answer, in
#: level space, as in the benchmark's oracle.
K_SE = 6.0


def exact_product_cdf(t: float, beta: UncertainScalar, dprime: UncertainScalar) -> float:
    """P(beta * D' <= t) for independent normals: the benchmark oracle's
    P(beta <= t / D' | D') (its complement where D' < 0) with scipy's ndtr,
    integrated over z = (D' - mean) / sd by scipy's adaptive quadrature, split
    where the integrand turns fast."""
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    b, sb, d, sd = beta.value, beta.dispersion, dprime.value, dprime.dispersion

    def weighted(z: float) -> float:
        x = d + sd * z
        if x == 0:
            given = float(t >= 0)
        else:
            w = (t / x - b) / sb
            given = float(special.ndtr(w if x > 0 else -w))
        return given * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    # Split where beta's z-score at t / D' is an integer in [-8, 8], and where
    # |D'| is |t| times a power of 4: the product's density is unbounded at 0
    # where both inputs have mass near 0, so a quantile near 0 turns the
    # integrand over many scales of D'. At t = 0 the integrand jumps at D' = 0.
    cuts = [t / (b + k * sb) for k in range(-8, 9) if b + k * sb]
    cuts += [s * abs(t) * 4.0 ** k for s in (-1, 1) for k in range(-5, 30)] if t else [0.0]
    splits = sorted({z for z in ((x - d) / sd for x in cuts) if -12 < z < 12})
    # full_output returns quad's error estimate in place of its warnings.
    value, error, *_ = integrate.quad(weighted, -12.0, 12.0, points=splits or None, limit=500,
                                      epsabs=1e-10, epsrel=1e-9, full_output=1)
    assert error < 1e-7  # the narrowest band is K_SE * sqrt(0.005 * 0.995 / 6e5) = 5.5e-4
    return value


def exact_product_p(beta: UncertainScalar, dprime: UncertainScalar) -> float:
    """P(beta * D' <= 0) in closed form."""
    special = pytest.importorskip("scipy.special")
    rb, rd = beta.value / beta.dispersion, dprime.value / dprime.dispersion
    return float(special.ndtr(-rb) * special.ndtr(rd) + special.ndtr(rb) * special.ndtr(-rd))


def run_sizes():
    """A run size for each path a run takes: one chunk on the calling thread,
    many chunks with the serial sort, and many chunks with the pooled sort."""
    one_chunk, serial_sort, pooled_sort = 20_000, 200_000, 600_000
    assert one_chunk <= CHUNK_SIZE < serial_sort < POOL_SORT_MIN <= pooled_sort
    return st.sampled_from([one_chunk, serial_sort, pooled_sort])


@settings(max_examples=100, deadline=None)
@given(st.floats(-100, 100), st.floats(0.01, 100), st.floats(-100, 100), st.floats(0.01, 100),
       st.integers(0, 2 ** 64 - 1), run_sizes())
def test_linear_distribution_matches_exact_answer(bv, bs, dv, ds, seed, n):
    """Each summary quantile of a run sits where the exact CDF reads its level,
    and the p-value near the closed form, within K_SE standard errors."""
    beta, dprime = UncertainScalar(bv, bs), UncertainScalar(dv, ds)
    d = product(beta, dprime, seed, n)
    for name, q in SUMMARY_LEVELS.items():
        level = exact_product_cdf(percentile(d, q), beta, dprime)
        assert abs(level - q) <= K_SE * math.sqrt(q * (1 - q) / n), (name, level)
    p = exact_product_p(beta, dprime)
    assert abs(tail_probability(d, 0.0) - p) <= K_SE * math.sqrt(p * (1 - p) / n) + 3 / n


@st.composite
def rising_surfaces(draw):
    """A strictly rising knot table from (0, 1) that covers total ± 9 sd, its
    interior knots within total ± 2 sd (so every piece holds draws), and a
    D' = N(value, sd) whose D0 = total - value lies inside the knots."""
    sd = draw(st.floats(0.01, 10))
    total = 9 * sd + draw(st.floats(0, 10))
    tenths = sorted(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True)))
    last = total + 9 * sd + draw(st.floats(0, 10))
    ds = [0.0] + [total + sd * k / 10 for k in tenths] + [last]
    rises = draw(st.lists(st.floats(0.01, 5), min_size=len(ds) - 1, max_size=len(ds) - 1))
    rrs = np.cumsum([1.0] + rises)
    d0 = draw(st.floats(0, 1)) * last
    return list(zip(ds, rrs.tolist())), total, UncertainScalar(total - d0, sd)


@settings(max_examples=100, deadline=None)
@given(rising_surfaces(), st.integers(0, 2 ** 64 - 1), run_sizes())
def test_surface_distribution_matches_exact_answer(surface, seed, n):
    """The excess 100 * (R(D0 + D') - R(D0)) rises with D', so its exact
    quantile at level q is 100 * (R(total + sd * Phi^-1(q)) - R(D0)): the share
    of samples at or below it lies within K_SE standard errors of q at each
    summary level, and p = P(D' <= 0) near Phi(-value / sd). R is scipy's
    PCHIP, an oracle independent of attrisk's Pchip."""
    special = pytest.importorskip("scipy.special")
    interpolate = pytest.importorskip("scipy.interpolate")
    knots, total, dprime = surface
    d = propagate(DoseResponse(knots=knots), total, dprime, seed, n)[0]
    rr = interpolate.PchipInterpolator(*zip(*knots))
    rr0 = float(rr(total - dprime.value))
    for name, q in SUMMARY_LEVELS.items():
        exact = 100.0 * (float(rr(total + dprime.dispersion * special.ndtri(q))) - rr0)
        level = tail_probability(d, exact)
        assert abs(level - q) <= K_SE * math.sqrt(q * (1 - q) / n), (name, level)
    p = float(special.ndtr(-dprime.value / dprime.dispersion))
    assert abs(tail_probability(d, 0.0) - p) <= K_SE * math.sqrt(p * (1 - p) / n) + 3 / n
