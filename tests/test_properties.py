"""Randomized property suites (each >= 200 cases)."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from attrisk.engine import analytic_product_moments, propagate_attribution
from attrisk.uq import (
    BoxWhiskerSummary,
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    summarize,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite_floats, min_size=2, max_size=200)


def dist(values):
    return EmpiricalDistribution.from_samples(values)


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
    base = propagate_attribution(UncertainScalar(bv, bs),
                                 UncertainScalar(dv, ds), seed, 256)
    scaled = propagate_attribution(UncertainScalar(k * bv, k * bs),
                                   UncertainScalar(dv, ds), seed, 256)
    assert np.array_equal(scaled.samples / k, base.samples)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-10, 10), st.floats(0.01, 5), st.floats(-10, 10),
       st.floats(0.01, 5), st.integers(0, 2**31))
def test_mc_moments_match_analytic_oracle(av, asd, bv, bsd, seed):
    a = UncertainScalar(av, asd)
    b = UncertainScalar(bv, bsd)
    mean, var = analytic_product_moments(a, b)
    n = 50_000
    d = propagate_attribution(a, b, seed, n)
    assert abs(d.mean - mean) < 5 * math.sqrt(var / n)
    assert abs(d.variance - var) < 10 * var / math.sqrt(n)
