"""Per-operation correctness checks against the oracle expectations.

Each check returns a list of failure messages; an empty list is a pass.
Printed reports are rounded, so every comparison widens its band by the
rounding of the field it reads.
"""

from __future__ import annotations

import json
import re

from oracles import SUMMARY_LEVELS, level_key

SIG12 = 1e-11       # relative rounding of the JSON report's 12 significant digits
POINT_RTOL = 1e-9   # point estimates are closed-form, up to quadrature tolerance


def _outside(value: float, band, slack: float) -> bool:
    return not band[0] - slack <= value <= band[1] + slack


def _values(values: dict, exp: dict, slack) -> list[str]:
    """Reported values against the expectations; slack(name, value) is the
    rounding allowance of that field as reported."""
    errors = []
    if (values["n"], values["seed"]) != (exp["n"], exp["seed"]):
        errors.append(f"reported (n, seed) = ({values['n']}, {values['seed']}), "
                      f"expected ({exp['n']}, {exp['seed']})")
    bands = dict(exp["bands"])
    bands.update({name: exp["quantile_bands"][level_key(q)] for name, q in SUMMARY_LEVELS.items()})
    for name, band in bands.items():
        if name in values and _outside(values[name], band, slack(name, values[name])):
            errors.append(f"{name} {values[name]} outside {band}")
    for name, expected in exp["point"].items():
        if name in values and abs(values[name] - expected) > (
                POINT_RTOL * max(abs(expected), 1.0) + slack(name, expected)):
            errors.append(f"{name} {values[name]} != {expected}")
    for name, (target, tol) in (exp["headline"] or {}).items():
        if name in values and abs(values[name] - target) > tol + slack(name, target):
            errors.append(f"{name} {values[name]} not within {target} +- {tol}")
    if exp["headline"] and "p_value" in values and not values["p_value"] < 0.01:
        errors.append(f"p_value {values['p_value']} does not reject the null at 0.01")
    return errors


def report_json(blob: bytes, exp: dict) -> list[str]:
    """A JSON report against its scenario's expectations."""
    doc = json.loads(blob)
    prov, s, hist = doc["provenance"], doc["distribution_summary"], doc["histogram"]
    values = dict(doc["attribution"], **s, p_value=doc["p_value"], n=prov["samples"],
                  seed=prov["seed"], exceedance=prov["anthropogenic_draws_above_total_fraction"])
    errors = _values(values, exp, lambda _name, v: SIG12 * abs(v))
    for q, v in doc["quantiles"]:
        band = exp["quantile_bands"].get(level_key(q))
        if band is not None and _outside(v, band, SIG12 * abs(v)):
            errors.append(f"quantile {q} = {v} outside {band}")
    if sum(count for _, _, count in hist) != exp["n"]:
        errors.append("histogram counts do not sum to the sample count")
    if any(lo > hi for lo, hi, _ in hist) or any(a[1] != b[0] for a, b in zip(hist, hist[1:])):
        errors.append("histogram edges are not contiguous and ascending")
    if not hist[0][0] <= s["p005"] <= s["p995"] <= hist[-1][1]:
        errors.append("histogram range does not cover the summary quantiles")
    support = exp["support"]
    if support is not None and (_outside(hist[0][0], support, 1e-9)
                                or _outside(hist[-1][1], support, 1e-9)):
        errors.append(f"samples span [{hist[0][0]}, {hist[-1][1]}], beyond what the "
                      f"knot domain allows {support}")
    return errors


_N = r"(-?\d+(?:\.\d+)?)"

#: Human `attribute` output: pattern -> the fields its groups hold.
_HUMAN = {
    rf"natural component: {_N}%": ("natural_excess_percent",),
    rf"anthropogenic component: {_N}%": ("anthropogenic_excess_percent",),
    rf"; p = {_N}": ("p_value",),
    r"\(n=(\d+), seed=(\d+)\)": ("n", "seed"),
    rf"mean {_N}%  median {_N}%": ("mean", "median"),
    rf"IQR \[{_N}, {_N}\]": ("q25", "q75"),
    rf"  90% \[{_N}, {_N}\]": ("p05", "p95"),
    rf"99% \[{_N}, {_N}\]": ("p005", "p995"),
}
#: `propagate` output.
_PROPAGATE = {
    r"samples: (\d+)  seed: (\d+)": ("n", "seed"),
    rf"mean:\s+{_N}": ("mean",),
    rf"median:\s+{_N}": ("median",),
    rf"IQR:\s+\[{_N}, {_N}\]": ("q25", "q75"),
    rf"90%:\s+\[{_N}, {_N}\]": ("p05", "p95"),
    rf"99%:\s+\[{_N}, {_N}\]": ("p005", "p995"),
    rf"p_value \(at or below 0\): {_N}": ("p_value",),
}


def _parse(text: str, patterns: dict) -> tuple[dict, list[str]]:
    values, errors = {}, []
    for pattern, names in patterns.items():
        m = re.search(pattern, text)
        if m is None:
            errors.append(f"no match for {pattern!r} in output")
            continue
        for name, group in zip(names, m.groups()):
            values[name] = int(group) if name in ("n", "seed") else float(group)
    return values, errors


def attribute_human(blob: bytes, exp: dict) -> list[str]:
    """Human report: the p-value has four decimals, other numbers two."""
    text = blob.decode()
    values, errors = _parse(text, _HUMAN)
    if errors:
        return errors
    errors = _values(values, exp, lambda name, _v: 0.5e-4 if name == "p_value" else 0.5e-2)
    if "WARNING" in text:
        errors.append("unexpected exceedance warning")
    return errors


def propagate_text(blob: bytes, exp: dict) -> list[str]:
    values, errors = _parse(blob.decode(), _PROPAGATE)
    return errors or _values(values, exp, lambda _name, _v: 0.5e-4)


def selftest_text(blob: bytes, _exp) -> list[str]:
    lines = blob.decode().strip().splitlines()
    if not lines or lines[-1] != "7/7 checks passed":
        return [f"selftest ended with {lines[-1] if lines else 'no output'!r}"]
    return []


CLI_CHECKS = {"attribute": attribute_human, "report": report_json,
              "propagate": propagate_text, "selftest": selftest_text}
