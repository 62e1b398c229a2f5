import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attrisk.engine import (
    DPRIME_STREAM,
    DomainCoverageError,
    DoseResponse,
    SignConventionError,
    analytic_product_moments,
    anthropogenic_exceedance_fraction,
    decompose_anomaly,
    integral_attribution,
    linear_attribution,
    propagate_attribution,
)
from attrisk.uq import RandomStream, UncertainScalar, sample

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
