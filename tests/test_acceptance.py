"""Acceptance suite: the canonical syria_2010 numbers, at pinned tolerances.

Each criterion prints one PASS line on success (pytest -s or the junit log
shows them); a failed assertion prints nothing and fails the test.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import attrisk
from attrisk.engine import (
    analytic_product_moments,
    decompose_anomaly,
    integral_attribution,
    propagate,
)
from attrisk.scenario import emit_report, load_scenario, run_scenario
from attrisk.uq import (
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    summarize,
    tail_probability,
)
from attrisk.engine import DoseResponse

SCENARIOS = Path(attrisk.__file__).parent / "scenarios"
SYRIA = SCENARIOS / "syria_2010.yaml"

BETA = UncertainScalar(3.54, 1.2)
DPRIME = UncertainScalar(1.08, 0.37)
LINEAR = DoseResponse(beta=BETA)


@pytest.fixture(scope="module")
def syria_cfg():
    return load_scenario(SYRIA)


@pytest.fixture(scope="module")
def syria_dist(syria_cfg):
    decomp = decompose_anomaly(syria_cfg.anomaly_total, DPRIME)
    return propagate(LINEAR, decomp, syria_cfg.seed, syria_cfg.samples)[0]


def ok(name, detail):
    print(f"PASS  {name}: {detail}")


def test_criterion_1_natural_point_estimate():
    decomp = decompose_anomaly(2.48, DPRIME)
    attr = integral_attribution(LINEAR, decomp)
    assert abs(attr.natural_excess - 4.96) <= 0.06
    ok("criterion 1 natural point estimate", f"{attr.natural_excess:.4f} = 4.96 ± 0.06")


def test_criterion_2_anthropogenic_point_estimate():
    decomp = decompose_anomaly(2.48, DPRIME)
    attr = integral_attribution(LINEAR, decomp)
    assert abs(attr.anthropogenic_excess - 3.82) <= 0.03
    ok("criterion 2 anthropogenic point estimate",
       f"{attr.anthropogenic_excess:.4f} = 3.82 ± 0.03")


def test_criterion_3_distribution_median(syria_dist):
    median = percentile(syria_dist, 0.5)
    assert abs(median - 3.6) <= 0.15
    ok("criterion 3 median", f"{median:.4f} = 3.6 ± 0.15")


def test_criterion_4_90_percent_interval(syria_dist):
    p05 = percentile(syria_dist, 0.05)
    p95 = percentile(syria_dist, 0.95)
    assert abs(p05 - 1.1) <= 0.3
    assert abs(p95 - 7.3) <= 0.3
    ok("criterion 4 90% interval", f"[{p05:.4f}, {p95:.4f}] = [1.1, 7.3] ± 0.3")


def test_criterion_5_null_rejection(syria_dist):
    p = tail_probability(syria_dist, 0.0)
    # closed form: P(exactly one factor <= 0) for independent normals
    p_beta = 0.5 * math.erfc((3.54 / 1.2) / math.sqrt(2))
    p_dprime = 0.5 * math.erfc((1.08 / 0.37) / math.sqrt(2))
    oracle = p_beta * (1 - p_dprime) + p_dprime * (1 - p_beta)
    assert oracle == pytest.approx(0.0033, abs=1e-4)
    assert p < 0.01
    assert abs(p - oracle) <= 0.001
    ok("criterion 5 null rejection", f"p = {p:.5f} < 0.01, oracle {oracle:.5f} ± 0.001")


def test_criterion_6_analytic_mc_agreement(syria_dist):
    mean, var = analytic_product_moments(DPRIME, BETA)
    assert mean == pytest.approx(3.8232, abs=1e-12)
    assert var == pytest.approx(3.5923, abs=1e-3)
    assert abs(syria_dist.mean - mean) <= 0.01
    assert abs(syria_dist.variance - var) <= 0.02 * var
    ok("criterion 6 analytic/MC agreement",
       f"mean {syria_dist.mean:.4f} vs {mean:.4f}, var {syria_dist.variance:.4f} vs {var:.4f}")


def test_criterion_7_linearization_equivalence():
    decomp = decompose_anomaly(2.48, DPRIME)
    linear_surface = DoseResponse(knots=[(d, 1 + 0.0354 * d) for d in range(4)])
    got = integral_attribution(linear_surface, decomp)
    want = integral_attribution(LINEAR, decomp)
    assert got.natural_excess == pytest.approx(want.natural_excess, rel=1e-9)
    assert got.anthropogenic_excess == pytest.approx(want.anthropogenic_excess, rel=1e-9)

    quad_surface = DoseResponse(
        knots=[(d, 1 + 0.01 * d ** 2) for d in np.arange(0, 3.01, 0.5)])
    quad_decomp = decompose_anomaly(2.0, UncertainScalar(1.0))
    attr = integral_attribution(quad_surface, quad_decomp)
    assert attr.natural_excess == pytest.approx(1.0, rel=1e-8)
    assert attr.anthropogenic_excess == pytest.approx(3.0, rel=1e-8)
    ok("criterion 7 linearization equivalence",
       f"linear match to 1e-9; quadratic integral ({attr.natural_excess:.10f}, "
       f"{attr.anthropogenic_excess:.10f}) = (1.0, 3.0) to 1e-8")


def test_criterion_8_determinism(syria_cfg):
    first = emit_report(run_scenario(syria_cfg), "json")
    second = emit_report(run_scenario(syria_cfg), "json")
    assert first == second

    reseeded_cfg = load_scenario(SYRIA, overrides={"mc.seed": 7})
    reseeded = run_scenario(reseeded_cfg)
    assert emit_report(reseeded, "json") != first
    assert reseeded.histogram != run_scenario(syria_cfg).histogram

    # criteria 1-6 still hold under the new seed
    s = reseeded.distribution_summary
    assert abs(reseeded.attribution.natural_excess - 4.96) <= 0.06
    assert abs(reseeded.attribution.anthropogenic_excess - 3.82) <= 0.03
    assert abs(s.median - 3.6) <= 0.15
    assert abs(s.p05 - 1.1) <= 0.3 and abs(s.p95 - 7.3) <= 0.3
    assert reseeded.p_value < 0.01 and abs(reseeded.p_value - 0.0033) <= 0.001
    assert abs(s.mean - 3.8232) <= 0.01
    ok("criterion 8 determinism",
       "identical configs byte-identical; reseed changes bytes, criteria 1-6 hold")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(1)
    cases = 200
    for i in range(cases):
        values = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5),
                            size=rng.integers(2, 300))
        d = EmpiricalDistribution(values)

        q1, q2 = sorted(rng.uniform(0, 1, size=2))
        assert percentile(d, q1) <= percentile(d, q2)

        s = summarize(d)
        assert s.p005 <= s.p05 <= s.q25 <= s.median <= s.q75 <= s.p95 <= s.p995

        bins = histogram(d, int(rng.integers(1, 50)))
        assert sum(count for _, _, count in bins) == d.sample_count

        k = 2.0 ** int(rng.integers(-6, 7))
        beta = UncertainScalar(rng.uniform(-5, 5), rng.uniform(0.01, 3))
        dprime = UncertainScalar(rng.uniform(-2, 2), rng.uniform(0.01, 1))
        scaled_beta = UncertainScalar(k * beta.value, k * beta.dispersion)
        decomp = decompose_anomaly(max(dprime.value, 0.0), dprime)
        base = propagate(DoseResponse(beta=beta), decomp, i, 128)[0]
        scaled = propagate(DoseResponse(beta=scaled_beta), decomp, i, 128)[0]
        assert np.array_equal(scaled.samples / k, base.samples)
    ok("criterion 9 property suites",
       f"{cases} randomized cases: percentile monotonicity, summary ordering, "
       "histogram conservation, scale equivariance")
