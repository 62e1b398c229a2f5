"""Expected values for the correctness gate, computed without attrisk.

Everything here follows from the generated scenario alone: closed forms for
the linear product of two independent normals, and scipy's
``PchipInterpolator`` as the reference surface.  Monte Carlo statistics get
a band of ``K_SE`` standard errors around the exact value; checks.py
compares each report against these bands.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

K_SE = 6.0
STD_NORMAL = NormalDist()

#: The quantile levels behind the report's distribution summary.
SUMMARY_LEVELS = {"p005": 0.005, "p05": 0.05, "q25": 0.25, "median": 0.5,
                  "q75": 0.75, "p95": 0.95, "p995": 0.995}

#: The syria_2010 headline numbers with the selftest tolerances:
#: name -> (target, tolerance).
SYRIA_HEADLINE = {
    "natural_excess_percent": (4.96, 0.06),
    "anthropogenic_excess_percent": (3.82, 0.03),
    "median": (3.6, 0.15),
    "p05": (1.1, 0.3),
    "p95": (7.3, 0.3),
    "p_value": (0.0033, 0.001),
}


def level_key(q: float) -> str:
    return f"{float(q):.6g}"


def _proportion_band(p: float, n: int) -> list[float]:
    # 3/n absorbs the discreteness of rare-event counts.
    half = K_SE * math.sqrt(p * (1.0 - p) / n) + 3.0 / n
    return [p - half, p + half]


def _levels(scenario: dict) -> list[float]:
    configured = scenario.get("report", {}).get("quantiles", list(SUMMARY_LEVELS.values()))
    return sorted(set(configured) | set(SUMMARY_LEVELS.values()))


def _level_bounds(q: float, n: int) -> tuple[float, float]:
    half = K_SE * math.sqrt(q * (1.0 - q) / n)
    return max(q - half, 1e-12), min(q + half, 1.0 - 1e-12)


def _linear_cdf(v: np.ndarray, b: float, sb: float, d: float, sd: float) -> np.ndarray:
    """P(beta * D' <= v) by quadrature over D' ~ N(d, sd)."""
    from scipy.special import ndtr

    u = np.linspace(-10.0, 10.0, 1001)
    w = np.exp(-0.5 * u * u)
    w /= w.sum()
    dprime = d + sd * u
    out = np.empty(v.size)
    for start in range(0, v.size, 256):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v[start:start + 256, None] / dprime[None, :] - b) / sb
        phi = ndtr(np.nan_to_num(z, nan=0.0, posinf=40.0, neginf=-40.0))
        out[start:start + 256] = np.where(dprime[None, :] > 0, phi, 1.0 - phi) @ w
    return out


def linear_expectations(scenario: dict, n: int, seed: int) -> dict:
    """Bands for a linear scenario with normal beta and D'."""
    dr, anth = scenario["dose_response"], scenario["anthropogenic"]
    b, sb = dr["value"], dr["dispersion"]
    d, sd = anth["value"], anth["dispersion"]
    total = scenario["anomaly_total"]
    mean = b * d
    var = b * b * sd * sd + d * d * sb * sb + sb * sb * sd * sd
    se = math.sqrt(var / n)
    p_beta_neg, p_d_neg = STD_NORMAL.cdf(-b / sb), STD_NORMAL.cdf(-d / sd)
    p_value = p_beta_neg * (1.0 - p_d_neg) + (1.0 - p_beta_neg) * p_d_neg

    sd_total = math.sqrt(var)
    grid = np.linspace(mean - 14.0 * sd_total, mean + 14.0 * sd_total, 1401)
    cdf = _linear_cdf(grid, b, sb, d, sd)
    bands = {}
    for q in _levels(scenario):
        lo, hi = _level_bounds(q, n)
        bands[level_key(q)] = [float(np.interp(lo, cdf, grid)), float(np.interp(hi, cdf, grid))]
    return {
        "n": n, "seed": seed,
        "point": {"natural_excess_percent": b * (total - d),
                  "anthropogenic_excess_percent": b * d,
                  "total_relative_risk": 1.0 + b * total / 100.0},
        "bands": {"mean": [mean - K_SE * se, mean + K_SE * se],
                  "p_value": _proportion_band(p_value, n),
                  "exceedance": _proportion_band(1.0 - STD_NORMAL.cdf((total - d) / sd), n)},
        "quantile_bands": bands,
        "support": None,
        "headline": SYRIA_HEADLINE if scenario["name"] == "syria_2010" else None,
    }


def surface_expectations(scenario: dict, n: int, seed: int) -> dict:
    """Bands for a surface scenario whose D0 + D' draws stay inside the knots."""
    from scipy.interpolate import PchipInterpolator

    knots = np.array(scenario["dose_response"]["knots"], dtype=float)
    rr = PchipInterpolator(knots[:, 0], knots[:, 1], extrapolate=False)
    anth = scenario["anthropogenic"]
    d, sd = anth["value"], anth["dispersion"]
    total = scenario["anomaly_total"]
    d0 = total - d
    rr_d0 = float(rr(d0))

    def excess(z):
        x = np.clip(d0 + d + sd * np.asarray(z, dtype=float), knots[0, 0], knots[-1, 0])
        return 100.0 * (rr(x) - rr_d0)

    z = np.linspace(-10.0, 10.0, 200_001)
    w = np.exp(-0.5 * z * z)
    w /= w.sum()
    e = excess(z)
    mean = float(e @ w)
    se = math.sqrt(max(float((e - mean) ** 2 @ w), 0.0) / n)

    bands = {}
    for q in _levels(scenario):
        if q in (0.0, 1.0):
            continue
        lo, hi = _level_bounds(q, n)
        bands[level_key(q)] = [float(excess(STD_NORMAL.inv_cdf(lo))),
                               float(excess(STD_NORMAL.inv_cdf(hi)))]
    return {
        "n": n, "seed": seed,
        "point": {"natural_excess_percent": 100.0 * (rr_d0 - 1.0),
                  "anthropogenic_excess_percent": 100.0 * (float(rr(total)) - rr_d0),
                  "total_relative_risk": float(rr(total))},
        "bands": {"mean": [mean - K_SE * se, mean + K_SE * se],
                  "p_value": _proportion_band(STD_NORMAL.cdf(-d / sd), n),
                  "exceedance": _proportion_band(1.0 - STD_NORMAL.cdf((total - d) / sd), n)},
        "quantile_bands": bands,
        "support": [100.0 * (float(knots[0, 1]) - rr_d0), 100.0 * (float(knots[-1, 1]) - rr_d0)],
        "headline": None,
    }


def expectations(scenario: dict, n: int, seed: int) -> dict:
    if scenario["dose_response"]["kind"] == "surface":
        return surface_expectations(scenario, n, seed)
    return linear_expectations(scenario, n, seed)
