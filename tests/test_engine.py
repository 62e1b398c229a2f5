import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.random import Generator, Philox, SeedSequence

from attrisk.engine import (
    BETA_STREAM,
    DPRIME_STREAM,
    DomainCoverageError,
    DoseResponse,
    SignConventionError,
    analytic_product_moments,
    anthropogenic_exceedance_fraction,
    decompose_anomaly,
    integral_attribution,
    linear_attribution,
    Pchip,
    propagate,
    propagate_attribution,
)
from attrisk.uq import CHUNK_SIZE, RandomStream, UncertainScalar, sample

SEED = 20150302

DPRIME = UncertainScalar(1.08, 0.37)
BETA = UncertainScalar(3.54, 1.2)

QUADRATURE_REL_TOL = 1e-9


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


def integrate_adaptive(f, a: float, b: float, breakpoints=()) -> float:
    """Adaptive composite Simpson quadrature, split at interior breakpoints: the
    reference that integral_attribution's interpolant differences must match."""
    if a == b:
        return 0.0
    points = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    pieces = [(lo, 0.5 * (lo + hi), hi) for lo, hi in zip(points, points[1:])]
    values = [(f(lo), f(m), f(hi)) for lo, m, hi in pieces]
    # The scale takes the midpoints too: the slope of a knot table with a
    # step between two plateaus is 0 at every knot, and a scale of 0 would
    # let no piece meet the tolerance.
    scale = max(abs(v) for piece in values for v in piece) * (b - a) + 1e-300
    total = 0.0
    for (lo, m, hi), (flo, fm, fhi) in zip(pieces, values):
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        total += _adaptive_simpson(f, lo, hi, flo, fm, fhi, whole, QUADRATURE_REL_TOL, scale)
    return total


class TestDecompose:
    def test_syria_split(self):
        d = decompose_anomaly(2.48, DPRIME)
        assert d.natural == pytest.approx(1.40)
        assert d.anthropogenic.value == 1.08

    def test_no_anthropogenic_component(self):
        d = decompose_anomaly(2.48, UncertainScalar(0.0))
        assert d.natural == 2.48

    def test_fully_anthropogenic(self):
        d = decompose_anomaly(1.0, UncertainScalar(1.0))
        assert d.natural == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(SignConventionError):
            decompose_anomaly(-0.5, DPRIME)

    def test_anthropogenic_exceeding_total_warns(self):
        with pytest.warns(UserWarning):
            decompose_anomaly(1.0, UncertainScalar(1.5))


class TestLinearAttribution:
    def test_syria_point_estimates(self):
        decomp = decompose_anomaly(2.48, DPRIME)
        attr = linear_attribution(3.54, decomp)
        assert attr.natural_excess == pytest.approx(4.956)
        assert attr.anthropogenic_excess == pytest.approx(3.8232)
        assert attr.total_relative_risk == pytest.approx(1 + 3.54 * 2.48 / 100)

    def test_zero_sensitivity(self):
        decomp = decompose_anomaly(2.48, DPRIME)
        attr = linear_attribution(0.0, decomp)
        assert (attr.natural_excess, attr.anthropogenic_excess) == (0.0, 0.0)
        assert attr.total_relative_risk == 1.0

    def test_temperature_coefficient_illustrative(self):
        decomp = decompose_anomaly(1.0, UncertainScalar(0.0))
        attr = linear_attribution(11.33, decomp)
        assert attr.natural_excess == 11.33

    def test_relative_risk_identity(self):
        decomp = decompose_anomaly(2.48, DPRIME)
        attr = linear_attribution(3.54, decomp)
        expected = 1 + (attr.natural_excess + attr.anthropogenic_excess) / 100
        assert attr.total_relative_risk == pytest.approx(expected, rel=1e-15)

    def test_decomposition_additivity(self):
        decomp = decompose_anomaly(2.48, DPRIME)
        attr = linear_attribution(3.54, decomp)
        assert attr.natural_excess + attr.anthropogenic_excess == \
            pytest.approx(3.54 * 2.48, rel=1e-12)


class TestSurface:
    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            DoseResponse.surface([(0, 1.0), (1, 1.1), (1, 1.2)])

    def test_must_anchor_unit_risk_at_zero(self):
        with pytest.raises(ValueError):
            DoseResponse.surface([(0, 1.1), (1, 1.2)])
        with pytest.raises(ValueError):
            DoseResponse.surface([(0.5, 1.0), (1, 1.2)])

    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            DoseResponse.surface([(0, 1.0)])


class TestIntegralAttribution:
    def test_linear_surface_reduces_to_linear_form(self):
        surface = DoseResponse.surface([(d, 1 + 0.0354 * d) for d in range(4)])
        decomp = decompose_anomaly(2.48, DPRIME)
        got = integral_attribution(surface, decomp)
        want = linear_attribution(3.54, decomp)
        assert got.natural_excess == pytest.approx(want.natural_excess, rel=1e-9)
        assert got.anthropogenic_excess == pytest.approx(want.anthropogenic_excess, rel=1e-9)

    def test_flat_surface(self):
        surface = DoseResponse.surface([(0, 1.0), (1, 1.0), (3, 1.0)])
        decomp = decompose_anomaly(2.0, UncertainScalar(1.0))
        attr = integral_attribution(surface, decomp)
        assert (attr.natural_excess, attr.anthropogenic_excess) == (0.0, 0.0)
        assert attr.total_relative_risk == 1.0

    def test_quadratic_surface_matches_closed_form(self):
        # integral of d/dD (1 + 0.01 D^2) = 0.02 D over [0,1] and [1,2]
        knots = [(d, 1 + 0.01 * d ** 2) for d in np.arange(0, 3.01, 0.5)]
        surface = DoseResponse.surface(knots)
        decomp = decompose_anomaly(2.0, UncertainScalar(1.0))
        attr = integral_attribution(surface, decomp)
        assert attr.natural_excess == pytest.approx(1.0, rel=1e-8)
        assert attr.anthropogenic_excess == pytest.approx(3.0, rel=1e-8)

    def test_domain_coverage(self):
        surface = DoseResponse.surface([(0, 1.0), (1, 1.05)])
        decomp = decompose_anomaly(2.0, UncertainScalar(1.0))
        with pytest.raises(DomainCoverageError):
            integral_attribution(surface, decomp)

    def test_requires_surface_kind(self):
        decomp = decompose_anomaly(2.0, UncertainScalar(1.0))
        with pytest.raises(ValueError):
            integral_attribution(DoseResponse.linear(BETA), decomp)

    def test_plateau_step_surface(self):
        # The slope is 0 at every knot; an adaptive quadrature scaled by the
        # knot slopes alone never terminates on this table.
        surface = DoseResponse.surface([(0, 1), (0.890827323040865, 1),
                                        (1.78165464608173, 1.1730171374637992),
                                        (2.672481969122595, 1.1730171374637992)])
        decomp = decompose_anomaly(2.5318607043073036, UncertainScalar(0.1))
        attr = integral_attribution(surface, decomp)
        assert attr.natural_excess == pytest.approx(17.30171374637992, rel=1e-12)
        assert attr.anthropogenic_excess == 0.0

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 0.5)),
                          min_size=1, max_size=8),
           falling=st.booleans(), total_at=st.floats(0.0, 1.0), dprime_at=st.floats(0.0, 1.0))
    def test_matches_quadrature_of_the_slope(self, steps, falling, total_at, dprime_at):
        knots = [(0.0, 1.0)]
        for dx, dy in steps:
            d, r = knots[-1]
            knots.append((d + dx, r - dy if falling else r + dy))
        surface = DoseResponse.surface(knots)
        last = knots[-1][0]
        total = total_at * last
        decomp = decompose_anomaly(total, UncertainScalar(dprime_at * total))
        d0 = decomp.natural
        d_total = d0 + decomp.anthropogenic.value
        assume(d_total <= last)

        attr = integral_attribution(surface, decomp)
        slope = surface.interpolant().derivative()
        knot_ds = [d for d, _ in knots]
        natural = 100.0 * integrate_adaptive(slope, 0.0, d0, knot_ds)
        anthropogenic = 100.0 * integrate_adaptive(slope, d0, d_total, knot_ds)
        bound = 1e-9 * max(abs(attr.natural_excess), abs(attr.anthropogenic_excess), 1.0)
        assert abs(attr.natural_excess - natural) <= bound
        assert abs(attr.anthropogenic_excess - anthropogenic) <= bound


class TestPchip:
    """The numpy PCHIP is scipy's PchipInterpolator, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 0.5),
                                    st.booleans()), min_size=1, max_size=7),
           shape=st.sampled_from(["rising", "falling", "mixed"]),
           probes=st.lists(st.floats(-3.0, 3.0), max_size=20))
    def test_matches_scipy(self, steps, shape, probes):
        scipy_interpolate = pytest.importorskip("scipy.interpolate")
        xs, ys = [0.0], [1.0]
        for dx, dy, up in steps:
            xs.append(xs[-1] + dx)
            ys.append(ys[-1] + (dy if shape == "rising" or shape == "mixed" and up else -dy))
        x, y = np.array(xs), np.array(ys)
        ours, theirs = Pchip(x, y), scipy_interpolate.PchipInterpolator(x, y)
        # The knots, between them, and beyond both ends.
        v = np.concatenate((x, (x[1:] + x[:-1]) / 2, x[0] - np.array([1e-9, 0.5, 3.0]),
                            x[-1] + np.array([1e-9, 0.5, 3.0]),
                            x[0] + (np.array(probes) + 0.5) * (x[-1] - x[0])))
        assert ours(v).tobytes() == theirs(v).tobytes()
        assert [float(ours(p)) for p in v] == [float(theirs(p)) for p in v]


class TestQuadrature:
    def test_polynomial_exact(self):
        assert integrate_adaptive(lambda x: x ** 2, 0, 3) == pytest.approx(9.0, rel=1e-12)

    def test_transcendental(self):
        assert integrate_adaptive(math.sin, 0, math.pi) == pytest.approx(2.0, rel=1e-9)

    def test_empty_interval(self):
        assert integrate_adaptive(math.exp, 1.0, 1.0) == 0.0

    def test_breakpoints_respected(self):
        f = lambda x: abs(x - 0.5)  # noqa: E731
        got = integrate_adaptive(f, 0, 1, breakpoints=[0.5])
        assert got == pytest.approx(0.25, rel=1e-9)


class TestPropagation:
    def test_point_masses_are_degenerate(self):
        d = propagate_attribution(UncertainScalar(3.54),
                                  UncertainScalar(1.08), SEED, 100)
        assert np.all(d.samples == 3.54 * 1.08)

    def test_zero_mean_product_is_centered(self):
        d = propagate_attribution(UncertainScalar(0, 1.2),
                                  UncertainScalar(0, 0.37), SEED, 1_000_000)
        assert abs(np.median(d.samples)) < 0.01

    def test_deterministic(self):
        a = propagate_attribution(BETA, DPRIME, SEED, 10_000)
        b = propagate_attribution(BETA, DPRIME, SEED, 10_000)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            propagate_attribution(BETA, DPRIME, SEED, 1)

    def test_syria_moments_match_analytic(self):
        d = propagate_attribution(BETA, DPRIME, SEED, 1_000_000)
        mean, var = analytic_product_moments(DPRIME, BETA)
        assert abs(d.mean - mean) < 5 * math.sqrt(var / d.sample_count)
        assert abs(d.variance - var) < 10 * var / math.sqrt(d.sample_count)

    def test_exceedance_fraction_matches_propagation_draws(self):
        draws = sample(DPRIME, RandomStream(SEED, DPRIME_STREAM), 1_000_000)
        frac = anthropogenic_exceedance_fraction(draws, 2.48)
        # P(N(1.08, 0.37) > 2.48) = 1 - Phi(1.4/0.37) ~ 7.7e-5
        oracle = 0.5 * math.erfc((2.48 - 1.08) / 0.37 / math.sqrt(2))
        assert abs(frac - oracle) < 5e-4


class TestAnalyticProductMoments:
    def test_syria_inputs(self):
        mean, var = analytic_product_moments(DPRIME, BETA)
        assert mean == pytest.approx(3.8232)
        assert var == pytest.approx(3.59232804)

    def test_standard_normal_pair(self):
        mean, var = analytic_product_moments(UncertainScalar(0, 1),
                                             UncertainScalar(0, 1))
        assert (mean, var) == (0.0, 1.0)

    def test_near_point_masses(self):
        mean, var = analytic_product_moments(UncertainScalar(5, 1e-4),
                                             UncertainScalar(2, 1e-4))
        assert mean == 10.0
        assert var == pytest.approx(2.9e-7, rel=0.01)

    def test_point_input_is_exact(self):
        mean, var = analytic_product_moments(UncertainScalar(3.54, 1.2), UncertainScalar(1.08))
        assert (mean, var) == (3.54 * 1.08, 1.08 ** 2 * 1.2 ** 2)


SURFACE = DoseResponse.surface([(0, 1), (1, 1.05), (2, 1.15), (3, 1.3), (5, 1.6)])

#: (dose-response, D') pairs: normals, and a point mass on either input.
KERNEL_CASES = {
    "linear": (DoseResponse.linear(BETA), DPRIME),
    "linear-point-beta": (DoseResponse.linear(UncertainScalar(3.54)), DPRIME),
    "linear-point-dprime": (DoseResponse.linear(BETA), UncertainScalar(1.08)),
    "surface": (SURFACE, UncertainScalar(1.2, 0.5)),
    "surface-point-dprime": (SURFACE, UncertainScalar(1.2)),
}
KERNEL_TOTAL = 2.0
KERNEL_SIZES = [2, CHUNK_SIZE, CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 17]


def serial_propagation(response, dprime, n, order=None):
    """Reference: every chunk keyed and drawn on this thread, in the given
    order, then the whole arrays formed as beta * D' or
    100 * (rr(D0 + D') - rr(D0)) and sorted."""
    def draws(q, label):
        if q.dispersion == 0:
            return np.full(n, q.value)
        out = np.empty(n)
        chunks = list(range(-(-n // CHUNK_SIZE)))
        for i in order(chunks) if order else chunks:
            start = i * CHUNK_SIZE
            gen = Generator(Philox(SeedSequence(SEED, spawn_key=(label, i))))
            out[start:start + CHUNK_SIZE] = gen.standard_normal(min(CHUNK_SIZE, n - start))
        return out * q.dispersion + q.value

    d = draws(dprime, DPRIME_STREAM)
    above = np.count_nonzero(d > KERNEL_TOTAL) / n
    if response.beta is not None:
        values = draws(response.beta, BETA_STREAM) * d
    else:
        rr = response.interpolant()
        d0 = KERNEL_TOTAL - dprime.value
        values = (rr(d + d0) - float(rr(d0))) * 100.0
    return np.sort(values), above


class TestPropagationKernel:
    """propagate draws, counts and maps each chunk in place on the pool; the
    result is the serial whole-array computation, bit for bit."""

    def run(self, case, n):
        response, dprime = KERNEL_CASES[case]
        return propagate(response, decompose_anomaly(KERNEL_TOTAL, dprime), SEED, n)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_pool_matches_serial_reference(self, case, n):
        dist, above = self.run(case, n)
        expected, expected_above = serial_propagation(*KERNEL_CASES[case], n)
        assert np.array_equal(dist.samples, expected)
        assert above == expected_above

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_chunk_order_does_not_matter(self, case, n):
        def shuffled(chunks):
            random.Random(n).shuffle(chunks)
            return chunks

        dist, _ = self.run(case, n)
        expected, _ = serial_propagation(*KERNEL_CASES[case], n, order=shuffled)
        assert np.array_equal(dist.samples, expected)

    def test_concurrent_runs_get_their_own_bits(self):
        n = 5 * CHUNK_SIZE + 17
        cases = ("linear", "surface")
        expected = {case: serial_propagation(*KERNEL_CASES[case], n)[0] for case in cases}
        mismatches = []

        def runs(case):
            for _ in range(3):
                if not np.array_equal(self.run(case, n)[0].samples, expected[case]):
                    mismatches.append(case)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=runs, args=(case,)) for case in cases * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_exceedance_counts_the_dprime_draws(self, case):
        n = 5 * CHUNK_SIZE + 17
        _, above = self.run(case, n)
        draws = sample(KERNEL_CASES[case][1], RandomStream(SEED, DPRIME_STREAM), n)
        assert above == np.count_nonzero(draws > KERNEL_TOTAL) / n
        assert above == anthropogenic_exceedance_fraction(draws, KERNEL_TOTAL)
