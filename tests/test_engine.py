import math

import numpy as np
import pytest

from attrisk.engine import (
    DPRIME_STREAM,
    DomainCoverageError,
    DoseResponse,
    SignConventionError,
    analytic_product_moments,
    anthropogenic_exceedance_fraction,
    decompose_anomaly,
    integral_attribution,
    integrate_adaptive,
    linear_attribution,
    propagate_attribution,
)
from attrisk.uq import RandomStream, UncertainScalar, sample

SEED = 20150302

DPRIME = UncertainScalar.normal(1.08, 0.37, "sigma")
BETA = UncertainScalar.normal(3.54, 1.2, "percent-per-sigma")


class TestDecompose:
    def test_syria_split(self):
        d = decompose_anomaly(2.48, DPRIME)
        assert d.natural == pytest.approx(1.40)
        assert d.anthropogenic.value == 1.08

    def test_no_anthropogenic_component(self):
        d = decompose_anomaly(2.48, UncertainScalar.point(0.0))
        assert d.natural == 2.48

    def test_fully_anthropogenic(self):
        d = decompose_anomaly(1.0, UncertainScalar.point(1.0))
        assert d.natural == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(SignConventionError):
            decompose_anomaly(-0.5, DPRIME)

    def test_anthropogenic_exceeding_total_warns(self):
        with pytest.warns(UserWarning):
            decompose_anomaly(1.0, UncertainScalar.point(1.5))

    def test_anthropogenic_exceeding_total_strict(self):
        with pytest.raises(ValueError):
            decompose_anomaly(1.0, UncertainScalar.point(1.5), strict=True)


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
        decomp = decompose_anomaly(1.0, UncertainScalar.point(0.0))
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
        decomp = decompose_anomaly(2.0, UncertainScalar.point(1.0))
        attr = integral_attribution(surface, decomp)
        assert (attr.natural_excess, attr.anthropogenic_excess) == (0.0, 0.0)
        assert attr.total_relative_risk == 1.0

    def test_quadratic_surface_matches_closed_form(self):
        # integral of d/dD (1 + 0.01 D^2) = 0.02 D over [0,1] and [1,2]
        knots = [(d, 1 + 0.01 * d ** 2) for d in np.arange(0, 3.01, 0.5)]
        surface = DoseResponse.surface(knots)
        decomp = decompose_anomaly(2.0, UncertainScalar.point(1.0))
        attr = integral_attribution(surface, decomp)
        assert attr.natural_excess == pytest.approx(1.0, rel=1e-8)
        assert attr.anthropogenic_excess == pytest.approx(3.0, rel=1e-8)

    def test_domain_coverage(self):
        surface = DoseResponse.surface([(0, 1.0), (1, 1.05)])
        decomp = decompose_anomaly(2.0, UncertainScalar.point(1.0))
        with pytest.raises(DomainCoverageError):
            integral_attribution(surface, decomp)

    def test_requires_surface_kind(self):
        decomp = decompose_anomaly(2.0, UncertainScalar.point(1.0))
        with pytest.raises(ValueError):
            integral_attribution(DoseResponse.linear(BETA), decomp)


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
        d = propagate_attribution(UncertainScalar.point(3.54),
                                  UncertainScalar.point(1.08), SEED, 100)
        assert np.all(d.samples == 3.54 * 1.08)

    def test_zero_mean_product_is_centered(self):
        d = propagate_attribution(UncertainScalar.normal(0, 1.2),
                                  UncertainScalar.normal(0, 0.37), SEED, 1_000_000)
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
        mean, var = analytic_product_moments(UncertainScalar.normal(0, 1),
                                             UncertainScalar.normal(0, 1))
        assert (mean, var) == (0.0, 1.0)

    def test_near_point_masses(self):
        mean, var = analytic_product_moments(UncertainScalar.normal(5, 1e-4),
                                             UncertainScalar.normal(2, 1e-4))
        assert mean == 10.0
        assert var == pytest.approx(2.9e-7, rel=0.01)

    def test_rejects_point_family(self):
        with pytest.raises(ValueError):
            analytic_product_moments(UncertainScalar.point(1.0), BETA)
