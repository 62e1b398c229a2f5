import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.random import Generator, Philox, SeedSequence

from attrisk import engine, uq
from attrisk.engine import (
    BETA_STREAM,
    DPRIME_STREAM,
    DoseResponse,
    analytic_product_moments,
    integral_attribution,
    Pchip,
    propagate,
)
from attrisk.uq import CHUNK_SIZE, POOL_SORT_MIN, UncertainScalar, chunk_sampler
from conftest import sample

SEED = 20150302

DPRIME = UncertainScalar(1.08, 0.37)
BETA = UncertainScalar(3.54, 1.2)
LINEAR = DoseResponse(beta=BETA)

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


def linear(beta: float) -> DoseResponse:
    return DoseResponse(beta=UncertainScalar(beta))


class TestTotalAnomaly:
    """Both engine calls take the total anomaly and D' and split them
    themselves, D0 = total - D'.value, refusing a total that is not a finite
    number >= 0 before anything is allocated or drawn. (The split itself:
    TestIntegralAttribution.test_linear_response_is_beta_times_each_component.)"""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        """engine's numpy, failing on any use: nothing may be allocated."""
        class Unused:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} reached before the total was checked")

        monkeypatch.setattr(engine, "np", Unused())

    @pytest.mark.parametrize("total, message", [
        (math.nan, "^total anomaly must be finite$"),
        (math.inf, "^total anomaly must be finite$"),
        (-math.inf, "^total anomaly must be finite$"),
        (-0.5, r"^total anomaly must be >= 0 \(positive = adverse\), got -0.5$")],
        ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("response", [LINEAR, DoseResponse(knots=[(0, 1), (3, 1.3)])],
                             ids=["linear", "surface"])
    @pytest.mark.parametrize("call", [
        lambda response, total: integral_attribution(response, total, DPRIME),
        lambda response, total: propagate(response, total, DPRIME, SEED, 10 ** 15)],
        ids=["integral_attribution", "propagate"])
    def test_bad_total_is_refused_first(self, call, response, total, message, no_numpy):
        with pytest.raises(ValueError, match=message):
            call(response, total)


def product(beta, dprime, seed, n):
    """The distribution of beta * D', from a total anomaly no less than D'."""
    return propagate(DoseResponse(beta=beta), max(dprime.value, 0.0), dprime, seed, n)[0]


class TestLinearAttribution:
    def test_syria_point_estimates(self):
        attr = integral_attribution(LINEAR, 2.48, DPRIME)
        assert attr.natural_excess == pytest.approx(4.956)
        assert attr.anthropogenic_excess == pytest.approx(3.8232)
        assert attr.total_relative_risk == pytest.approx(1 + 3.54 * 2.48 / 100)

    def test_zero_sensitivity(self):
        attr = integral_attribution(linear(0.0), 2.48, DPRIME)
        assert (attr.natural_excess, attr.anthropogenic_excess) == (0.0, 0.0)
        assert attr.total_relative_risk == 1.0

    def test_temperature_coefficient_illustrative(self):
        attr = integral_attribution(linear(11.33), 1.0, UncertainScalar(0.0))
        assert attr.natural_excess == 11.33

    def test_relative_risk_identity(self):
        attr = integral_attribution(LINEAR, 2.48, DPRIME)
        expected = 1 + (attr.natural_excess + attr.anthropogenic_excess) / 100
        assert attr.total_relative_risk == pytest.approx(expected, rel=1e-15)

    def test_decomposition_additivity(self):
        attr = integral_attribution(LINEAR, 2.48, DPRIME)
        assert attr.natural_excess + attr.anthropogenic_excess == \
            pytest.approx(3.54 * 2.48, rel=1e-12)


class TestSurface:
    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            DoseResponse(knots=[(0, 1.0), (1, 1.1), (1, 1.2)])

    def test_must_anchor_unit_risk_at_zero(self):
        with pytest.raises(ValueError):
            DoseResponse(knots=[(0, 1.1), (1, 1.2)])
        with pytest.raises(ValueError):
            DoseResponse(knots=[(0.5, 1.0), (1, 1.2)])

    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            DoseResponse(knots=[(0, 1.0)])


class TestDoseResponse:
    """The kind follows from the data: beta or knots, exactly one of the two."""

    def test_beta_and_knots_together_are_rejected(self):
        # The split model: a point estimate from the surface and a
        # distribution from beta * D', under one config.
        with pytest.raises(ValueError, match="beta or knots"):
            DoseResponse(beta=BETA, knots=((0, 1), (3, 1.2)))

    @pytest.mark.parametrize("given", [{}, {"knots": ()}, {"knots": [(0, 1.0)]}],
                             ids=["neither", "no-knots", "one-knot"])
    def test_fewer_than_two_knots_is_rejected(self, given):
        with pytest.raises(ValueError, match="surface needs at least 2 knots"):
            DoseResponse(**given)

    def test_linear_has_no_surface(self):
        linear = DoseResponse(beta=BETA)
        assert (linear.knots, linear.rr) == ((), None)

    def test_knots_become_float_tuples(self):
        surface = DoseResponse(knots=[[0, 1], [3, 1.2]])
        assert surface.knots == ((0.0, 1.0), (3.0, 1.2))
        assert all(type(v) is float for knot in surface.knots for v in knot)
        assert surface.beta is None
        assert float(surface.rr(3.0)) == 1.2
        assert surface == DoseResponse(knots=((0.0, 1.0), (3.0, 1.2)))


class TestIntegralAttribution:
    def test_linear_surface_reduces_to_linear_form(self):
        surface = DoseResponse(knots=[(d, 1 + 0.0354 * d) for d in range(4)])
        got = integral_attribution(surface, 2.48, DPRIME)
        want = integral_attribution(LINEAR, 2.48, DPRIME)
        assert got.natural_excess == pytest.approx(want.natural_excess, rel=1e-9)
        assert got.anthropogenic_excess == pytest.approx(want.anthropogenic_excess, rel=1e-9)

    def test_flat_surface(self):
        surface = DoseResponse(knots=[(0, 1.0), (1, 1.0), (3, 1.0)])
        attr = integral_attribution(surface, 2.0, UncertainScalar(1.0))
        assert (attr.natural_excess, attr.anthropogenic_excess) == (0.0, 0.0)
        assert attr.total_relative_risk == 1.0

    def test_quadratic_surface_matches_closed_form(self):
        # integral of d/dD (1 + 0.01 D^2) = 0.02 D over [0,1] and [1,2]
        knots = [(d, 1 + 0.01 * d ** 2) for d in np.arange(0, 3.01, 0.5)]
        surface = DoseResponse(knots=knots)
        attr = integral_attribution(surface, 2.0, UncertainScalar(1.0))
        assert attr.natural_excess == pytest.approx(1.0, rel=1e-8)
        assert attr.anthropogenic_excess == pytest.approx(3.0, rel=1e-8)

    def test_domain_coverage(self):
        surface = DoseResponse(knots=[(0, 1.0), (1, 1.05)])
        with pytest.raises(ValueError, match="^anomaly 2.0 exceeds the last surface knot at D=1"):
            integral_attribution(surface, 2.0, UncertainScalar(1.0))

    @pytest.mark.parametrize("total, dprime", [(2.48, DPRIME), (2.0, UncertainScalar(0.0)),
                                               (1.0, UncertainScalar(1.0)),
                                               (0.3, UncertainScalar(1.2, 0.4))],
                             ids=["syria", "natural-only", "anthropogenic-only",
                                  "negative-natural"])
    @pytest.mark.parametrize("beta", [BETA, UncertainScalar(-0.7), UncertainScalar(11.33, 2)],
                             ids=["syria", "protective", "temperature"])
    def test_linear_response_is_beta_times_each_component(self, beta, total, dprime):
        # A negative natural component still has its beta * D0.
        attr = integral_attribution(DoseResponse(beta=beta), total, dprime)
        natural = beta.value * (total - dprime.value)
        anthropogenic = beta.value * dprime.value
        assert (attr.natural_excess, attr.anthropogenic_excess) == (natural, anthropogenic)
        assert attr.total_relative_risk == 1.0 + (natural + anthropogenic) / 100.0

    def test_plateau_step_surface(self):
        # The slope is 0 at every knot; an adaptive quadrature scaled by the
        # knot slopes alone never terminates on this table.
        surface = DoseResponse(knots=[(0, 1), (0.890827323040865, 1),
                                      (1.78165464608173, 1.1730171374637992),
                                      (2.672481969122595, 1.1730171374637992)])
        attr = integral_attribution(surface, 2.5318607043073036, UncertainScalar(0.1))
        assert attr.natural_excess == pytest.approx(17.30171374637992, rel=1e-12)
        assert attr.anthropogenic_excess == 0.0

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 0.5)),
                          min_size=1, max_size=8),
           falling=st.booleans(), total_at=st.floats(0.0, 1.0), dprime_at=st.floats(0.0, 1.0))
    def test_matches_quadrature_of_the_slope(self, steps, falling, total_at, dprime_at):
        scipy_interpolate = pytest.importorskip("scipy.interpolate")
        # A falling step scales the relative risk by 1 - dy, so it stays > 0.
        knots = [(0.0, 1.0)]
        for dx, dy in steps:
            d, r = knots[-1]
            knots.append((d + dx, r * (1 - dy) if falling else r + dy))
        surface = DoseResponse(knots=knots)
        last = knots[-1][0]
        total = total_at * last
        dprime = dprime_at * total
        d0 = total - dprime
        d_total = d0 + dprime
        assume(d_total <= last)

        attr = integral_attribution(surface, total, UncertainScalar(dprime))
        # The oracle integrates scipy's slope, not one derived from engine.Pchip.
        with np.errstate(over="ignore"):  # scipy warns where a slope is subnormal
            slope = scipy_interpolate.PchipInterpolator(*np.array(knots).T).derivative()
        knot_ds = [d for d, _ in knots]
        natural = 100.0 * integrate_adaptive(slope, 0.0, d0, knot_ds)
        anthropogenic = 100.0 * integrate_adaptive(slope, d0, d_total, knot_ds)
        bound = 1e-9 * max(abs(attr.natural_excess), abs(attr.anthropogenic_excess), 1.0)
        assert abs(attr.natural_excess - natural) <= bound
        assert abs(attr.anthropogenic_excess - anthropogenic) <= bound


#: Knot tables of 2-8 knots from (0, 1): each step (dx, dy, up) rises by dy,
#: falls by dy, or (mixed) goes the way ``up`` says; and probes to evaluate at.
KNOT_STEPS = st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 0.5), st.booleans()),
                      min_size=1, max_size=7)
KNOT_SHAPES = st.sampled_from(["rising", "falling", "mixed"])
PROBES = st.lists(st.floats(-3.0, 3.0), max_size=20)
#: A last step of a subnormal size, whose knot-slope mean overflows.
SUBNORMAL_SLOPE = example(steps=[(1.0, 0.5, False), (1.0, 0.25, False), (1.0, 0.25, False),
                                 (1.0, 1.1125369292536007e-308, False)],
                          shape="falling", probes=[])


def knot_table(steps, shape, probes):
    """The knots x, y, and values at the knots, between them, beyond both ends
    and at the probes (scaled to the knot span)."""
    xs, ys = [0.0], [1.0]
    for dx, dy, up in steps:
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] + (dy if shape == "rising" or shape == "mixed" and up else -dy))
    x, y = np.array(xs), np.array(ys)
    v = np.concatenate((x, (x[1:] + x[:-1]) / 2, x[0] - np.array([1e-9, 0.5, 3.0]),
                        x[-1] + np.array([1e-9, 0.5, 3.0]),
                        x[0] + (np.array(probes) + 0.5) * (x[-1] - x[0])))
    return x, y, v


class TestPchip:
    """The numpy PCHIP is scipy's PchipInterpolator, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(steps=KNOT_STEPS, shape=KNOT_SHAPES, probes=PROBES)
    @SUBNORMAL_SLOPE
    def test_matches_scipy(self, steps, shape, probes):
        scipy_interpolate = pytest.importorskip("scipy.interpolate")
        x, y, v = knot_table(steps, shape, probes)
        ours = Pchip(x, y)
        with np.errstate(over="ignore"):  # scipy warns where a slope is subnormal
            theirs = scipy_interpolate.PchipInterpolator(x, y)
        assert ours(v).tobytes() == theirs(v).tobytes()
        assert [float(ours(p)) for p in v] == [float(theirs(p)) for p in v]
        # At the first knot, exactly its relative risk: integral_attribution takes rr(0) as 1.
        assert float(ours(0.0)) == 1.0
        # map_sorted in place on any run of sorted values, down to one value or none.
        v.sort()
        for lo, hi in [(0, None), (1, -1), (2, 3), (0, 0)]:
            part = v[lo:hi].copy()
            ours.map_sorted(part)
            assert part.tobytes() == theirs(v[lo:hi]).tobytes()


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
        d = product(UncertainScalar(3.54), UncertainScalar(1.08), SEED, 100)
        assert np.all(d.samples == 3.54 * 1.08)

    def test_zero_mean_product_is_centered(self):
        d = product(UncertainScalar(0, 1.2), UncertainScalar(0, 0.37), SEED, 1_000_000)
        assert abs(np.median(d.samples)) < 0.01

    def test_deterministic(self):
        a = product(BETA, DPRIME, SEED, 10_000)
        b = product(BETA, DPRIME, SEED, 10_000)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            product(BETA, DPRIME, SEED, 1)

    def test_syria_moments_match_analytic(self):
        d = product(BETA, DPRIME, SEED, 1_000_000)
        mean, var = analytic_product_moments(DPRIME, BETA)
        assert abs(d.mean - mean) < 5 * math.sqrt(var / d.sample_count)
        assert abs(d.variance - var) < 10 * var / math.sqrt(d.sample_count)

    def test_exceedance_fraction_matches_propagation_draws(self):
        frac = propagate(DoseResponse(beta=BETA), 2.48, DPRIME, SEED, 1_000_000)[1]
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


SURFACE = DoseResponse(knots=[(0, 1), (1, 1.05), (2, 1.15), (3, 1.3), (5, 1.6)])

#: (dose-response, D') pairs: normals, and a point mass on either input; and
#: surfaces whose excess, mapped from sorted D0 + D', stays in order or not.
KERNEL_CASES = {
    "linear": (DoseResponse(beta=BETA), DPRIME),
    "linear-point-beta": (DoseResponse(beta=UncertainScalar(3.54)), DPRIME),
    "linear-point-dprime": (DoseResponse(beta=BETA), UncertainScalar(1.08)),
    "surface": (SURFACE, UncertainScalar(1.2, 0.5)),
    "surface-point-dprime": (SURFACE, UncertainScalar(1.2)),
    "surface-falling": (DoseResponse(knots=[(0, 1), (1, 0.95), (2, 0.85), (3, 0.7), (5, 0.4)]),
                        UncertainScalar(1.2, 0.5)),
    "surface-turning": (DoseResponse(knots=[(0, 1), (1, 1.5), (2, 1.2), (3, 1.6)]),
                        UncertainScalar(1.2, 0.5)),
    "surface-plateau-step": (DoseResponse(knots=[(0, 1), (0.890827323040865, 1),
                                                 (1.78165464608173, 1.1730171374637992),
                                                 (2.672481969122595, 1.1730171374637992)]),
                             UncertainScalar(1.0, 0.5)),
    # D0 + D' ~ N(2, 3): draws pass both ends of the knots.
    "surface-wide": (SURFACE, UncertainScalar(1.0, 3.0)),
}
KERNEL_TOTAL = 2.0
KERNEL_SIZES = [2, 17, CHUNK_SIZE, CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 17]


def serial_propagation(response, dprime, n, order=None):
    """Reference: every chunk keyed and drawn on this thread, in the given
    order, then the whole arrays formed as beta * D' or
    100 * (rr(D0 + D') - rr(D0)) in draw order and sorted."""
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
        rr = response.rr
        d0 = KERNEL_TOTAL - dprime.value
        values = (rr(d + d0) - float(rr(d0))) * 100.0
    return np.sort(values), above


class TestPropagationKernel:
    """propagate draws, counts and maps each chunk in place on the pool; the
    result is the serial whole-array computation, bit for bit."""

    def run(self, case, n):
        response, dprime = KERNEL_CASES[case]
        return propagate(response, KERNEL_TOTAL, dprime, SEED, n)

    # A surface run of POOL_SORT_MIN + 17 sorts its D' as two tasks before the map.
    @pytest.mark.parametrize("case, n", [
        (case, n) for case in KERNEL_CASES
        for n in KERNEL_SIZES + [POOL_SORT_MIN + 17] * case.startswith("surface")])
    def test_pool_matches_serial_reference(self, case, n, monkeypatch):
        if n >= POOL_SORT_MIN:
            monkeypatch.setattr(uq, "_workers", 2)  # the pooled sort, also on one CPU
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

    @pytest.fixture
    def finalized(self, monkeypatch):
        """Per run: the result of each order check the distribution makes on the
        array it takes over, one per window of CHUNK_SIZE + 1 values up to the
        first False (then it sorts)."""
        checks = []

        def recorded(a):
            checks.append(ascending(a))
            return checks[-1]

        ascending = uq._ascending
        monkeypatch.setattr(uq, "_ascending", recorded)
        return checks

    @pytest.fixture
    def sorts(self, monkeypatch):
        """Per run: the size of each array the distribution sorts (the surface
        path's sort of D' before the map is not counted)."""
        sizes = []

        def recorded(a):
            sizes.append(a.size)
            sort_in_place(a)

        sort_in_place = uq.sort_in_place
        monkeypatch.setattr(uq, "sort_in_place", recorded)
        return sizes

    @pytest.mark.parametrize("case", [c for c in KERNEL_CASES if c.startswith("linear")])
    def test_linear_fails_the_first_check_and_sorts(self, case, finalized, sorts):
        dist, _ = self.run(case, 5 * CHUNK_SIZE + 17)
        assert finalized == [False]
        assert sorts == [5 * CHUNK_SIZE + 17]
        assert np.all(dist.samples[:-1] <= dist.samples[1:])

    @pytest.mark.parametrize("case, sorted_again", [
        ("surface-point-dprime", False), ("surface-plateau-step", False),
        ("surface-falling", True), ("surface-turning", True),
        # The end cubics turn beyond the knots, so draws past them break the order.
        ("surface-wide", True), ("surface", True)])
    def test_surface_is_sorted_again_only_out_of_order(self, case, sorted_again, finalized,
                                                       sorts):
        n = 5 * CHUNK_SIZE + 17
        self.run(case, n)
        if sorted_again:
            assert finalized == [True] * (len(finalized) - 1) + [False]
        else:
            assert finalized == [True] * 6
        assert sorts == ([n] if sorted_again else [])

    def test_order_is_checked_across_chunks(self, finalized):
        # The surface turns down and up again between the last D0 + D' of
        # the first chunk and the first of the second, and rises within each.
        dprime, n = UncertainScalar(1.0, 0.1), 2 * CHUNK_SIZE
        d = np.sort(sample(dprime, SEED, DPRIME_STREAM, n)
                    + (KERNEL_TOTAL - dprime.value))
        a, b = d[CHUNK_SIZE - 1], d[CHUNK_SIZE]
        response = DoseResponse(knots=[(0, 1), (1, 1.5), (a + (b - a) / 3, 2),
                                       (b - (b - a) / 3, 1.5), (5, 3)])
        mapped = response.rr(d)
        first, second = mapped[:CHUNK_SIZE], mapped[CHUNK_SIZE:]
        assert np.all(first[:-1] <= first[1:]) and np.all(second[:-1] <= second[1:])
        assert first[-1] > second[0]
        dist, _ = propagate(response, KERNEL_TOTAL, dprime, SEED, n)
        # The first window holds the join.
        assert finalized == [False]
        assert np.array_equal(dist.samples, serial_propagation(response, dprime, n)[0])

    def test_rising_surface_is_not_sorted_again(self, finalized):
        # D0 + D' ~ N(2, 0.3) stays inside the knots [0, 5] at this seed and n.
        dist, _ = propagate(SURFACE, KERNEL_TOTAL, UncertainScalar(1.2, 0.3),
                            SEED, 5 * CHUNK_SIZE + 17)
        assert finalized == [True] * 6
        expected, _ = serial_propagation(SURFACE, UncertainScalar(1.2, 0.3), dist.sample_count)
        assert np.array_equal(dist.samples, expected)

    @pytest.mark.parametrize("n", [2, 17, CHUNK_SIZE, CHUNK_SIZE + 1])
    def test_where_each_stream_is_drawn(self, n, monkeypatch):
        """At every size, each chunk's two draws, beta first, on one thread."""
        monkeypatch.setattr(uq, "_workers", 2)  # as on 2 CPUs, also where there is 1
        threads = []

        def recording(q, seed, label):
            draw = chunk_sampler(q, seed, label)

            def recorded(i, chunk):
                threads.append((i, label, threading.get_ident()))
                if label == BETA_STREAM:
                    time.sleep(0.05)  # were the pair split, another thread takes D' now
                draw(i, chunk)

            return recorded

        monkeypatch.setattr(engine, "chunk_sampler", recording)
        self.run("linear", n)
        by_chunk = {}
        for i, label, thread in threads:
            by_chunk.setdefault(i, []).append((label, thread))
        assert sorted(by_chunk) == list(range(-(-n // CHUNK_SIZE)))
        for (beta, one), (dprime, other) in by_chunk.values():
            assert (beta, dprime) == (BETA_STREAM, DPRIME_STREAM)
            assert one == other
        # The bytes at each of these sizes: test_pool_matches_serial_reference.

    @pytest.fixture
    def starts(self, monkeypatch):
        """Per run on two workers: each thread started."""
        monkeypatch.setattr(uq, "_workers", 2)
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    @pytest.mark.parametrize("case", ["linear", "surface"])
    def test_a_run_of_many_chunks_starts_one_helper(self, case, starts):
        # Three chunk tasks on two workers: no task starts helpers of its own,
        # and a surface maps its sorted draws on the calling thread.
        self.run(case, 2 * CHUNK_SIZE + 1)
        assert len(starts) == 1

    @pytest.mark.parametrize("n", [2, CHUNK_SIZE])
    @pytest.mark.parametrize("case", ["linear", "linear-point-beta", "surface"])
    def test_a_run_of_one_chunk_starts_no_helper(self, case, n, starts):
        self.run(case, n)
        assert starts == []

    @pytest.mark.parametrize("total, dprime", [
        (2.0, 1.2), (2.0, 2.0), (2.0, -0.0), (0.0, 0.0), (1.0, -0.5)])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_point_inputs_give_the_point_estimate(self, case, total, dprime):
        """The point and the MC paths are one s·g: with beta and D' point
        masses, every sample is the point estimate, bit for bit (a signed zero
        included)."""
        response = KERNEL_CASES[case][0]
        if response.beta is not None:
            response = DoseResponse(beta=UncertainScalar(response.beta.value))
        dprime = UncertainScalar(dprime)
        point = integral_attribution(response, total, dprime).anthropogenic_excess
        dist, _ = propagate(response, total, dprime, SEED, 17)
        assert dist.samples.tobytes() == np.full(17, point).tobytes()

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_exceedance_counts_the_dprime_draws(self, case):
        n = 5 * CHUNK_SIZE + 17
        _, above = self.run(case, n)
        draws = sample(KERNEL_CASES[case][1], SEED, DPRIME_STREAM, n)
        assert above == np.count_nonzero(draws > KERNEL_TOTAL) / n
