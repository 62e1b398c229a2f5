"""Command-line interface.

Commands:
  attribute  run a scenario file and emit the report (default: human text)
  report     same pipeline, default format json (for piping/archiving)
  propagate  raw two-factor propagation from inline numeric flags
  selftest   replay the bundled syria_2010 scenario against its known answers

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
All report output goes to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources

import yaml

from . import __version__
from .engine import analytic_product_moments, decompose_anomaly, linear_attribution, \
    propagate_attribution
from .scenario import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    FORMATS,
    ScenarioError,
    emit_report,
    load_scenario,
    run_scenario,
)
from .uq import TailDirection, UncertainScalar, summarize, tail_probability

ENV_SEED = "ATTRISK_SEED"


def _bundled_scenario(name: str) -> str:
    return str(resources.files("attrisk").joinpath(f"scenarios/{name}.yaml"))


def _parse_set(pairs: list[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        if not key:
            raise ScenarioError(f"--set expects a dotted key, got {pair!r}")
        overrides[key] = yaml.safe_load(raw)
    return overrides


def _env_default_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc


def _load(args) -> "ScenarioConfig":
    if not os.path.exists(args.scenario):
        raise ScenarioError(f"file not found: {args.scenario}")
    overrides = _parse_set(args.set)
    # Precedence: built-in default < ATTRISK_SEED < file < --set < --seed/--samples.
    if args.seed is not None:
        overrides["mc.seed"] = args.seed
    if args.samples is not None:
        overrides["mc.samples"] = args.samples
    return load_scenario(args.scenario, overrides, default_seed=_env_default_seed())


def _write(payload: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def cmd_attribute(args) -> int:
    cfg = _load(args)
    bundle = run_scenario(cfg)
    _write(emit_report(bundle, args.format), args.out)
    return 0


def _flag_scalar(flag: str, value: float, sd: float, units: str) -> UncertainScalar:
    if not math.isfinite(value):
        raise ScenarioError(f"{flag} must be finite, got {value}")
    sd_flag = f"{flag}-sd"
    if not (math.isfinite(sd) and sd >= 0):
        raise ScenarioError(f"{sd_flag} must be finite and >= 0, got {sd}")
    if sd == 0:
        return UncertainScalar.point(value, units)
    return UncertainScalar.normal(value, sd, units)


def cmd_propagate(args) -> int:
    # Every flag is checked before anything is drawn: bad input is a usage error.
    seed, seed_source = args.seed, "--seed"
    if seed is None:
        seed, seed_source = _env_default_seed(), ENV_SEED
    if seed is None:
        seed = DEFAULT_SEED
    if seed < 0:
        raise ScenarioError(f"{seed_source} must be >= 0, got {seed}")
    if args.samples < 2:
        raise ScenarioError(f"--samples must be >= 2, got {args.samples}")
    beta = _flag_scalar("--beta", args.beta, args.beta_sd, "percent-per-sigma")
    dprime = _flag_scalar("--dprime", args.dprime, args.dprime_sd, "sigma")
    dist = propagate_attribution(beta, dprime, seed, args.samples)
    s = summarize(dist)
    p = tail_probability(dist, 0.0, TailDirection.AT_OR_BELOW)
    print(f"samples: {dist.sample_count}  seed: {seed}")
    print(f"mean:   {s.mean:.4f}")
    print(f"median: {s.median:.4f}")
    print(f"IQR:    [{s.q25:.4f}, {s.q75:.4f}]")
    print(f"90%:    [{s.p05:.4f}, {s.p95:.4f}]")
    print(f"99%:    [{s.p005:.4f}, {s.p995:.4f}]")
    print(f"p_value (at or below 0): {p:.4f}")
    return 0


def _selftest_checks(cfg):
    """The seven regression checks against the known scenario answers."""
    decomp = decompose_anomaly(cfg.anomaly_total, cfg.anthropogenic)
    beta = cfg.dose_response.beta
    attribution = linear_attribution(beta.value, decomp)
    dist = propagate_attribution(beta, cfg.anthropogenic, cfg.seed, cfg.samples)
    s = summarize(dist)
    p = tail_probability(dist, 0.0, TailDirection.AT_OR_BELOW)
    exact_mean, exact_var = analytic_product_moments(beta, cfg.anthropogenic)

    return [
        ("natural_point", attribution.natural_excess, "4.96 ± 0.06",
         abs(attribution.natural_excess - 4.96) <= 0.06),
        ("anthropogenic_point", attribution.anthropogenic_excess, "3.82 ± 0.03",
         abs(attribution.anthropogenic_excess - 3.82) <= 0.03),
        ("median", s.median, "3.6 ± 0.15", abs(s.median - 3.6) <= 0.15),
        ("p05", s.p05, "1.1 ± 0.3", abs(s.p05 - 1.1) <= 0.3),
        ("p95", s.p95, "7.3 ± 0.3", abs(s.p95 - 7.3) <= 0.3),
        ("null_rejection", p, "< 0.01 and 0.0033 ± 0.001",
         p < 0.01 and abs(p - 0.0033) <= 0.001),
        ("mc_moments", dist.mean, f"mean {exact_mean:.4f} ± 0.01, var ±2%",
         abs(dist.mean - exact_mean) <= 0.01
         and abs(dist.variance - exact_var) <= 0.02 * exact_var),
    ]


def cmd_selftest(args) -> int:
    overrides = _parse_set(args.set)
    if args.seed is not None:
        overrides["mc.seed"] = args.seed
    if args.samples is not None:
        overrides["mc.samples"] = args.samples
    cfg = load_scenario(_bundled_scenario("syria_2010"), overrides,
                        default_seed=_env_default_seed())
    checks = _selftest_checks(cfg)
    failures = 0
    for name, value, target, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<22} {value:.4f}  (target {target})")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrisk",
        description="Attribute excess outcome risk to the anthropogenic "
                    "component of a climate anomaly.")
    parser.add_argument("--version", action="version", version=f"attrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p, default_format):
        p.add_argument("scenario", help="path to a scenario YAML file")
        p.add_argument("--format", choices=FORMATS, default=default_format)
        p.add_argument("--out", default=None, help="write report to this path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override a config field by dotted path (repeatable)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)

    p_attr = sub.add_parser("attribute", help="run a scenario and emit its report")
    add_scenario_args(p_attr, "human")
    p_attr.set_defaults(func=cmd_attribute)

    p_rep = sub.add_parser("report", help="run a scenario, emit structured report")
    add_scenario_args(p_rep, "json")
    p_rep.set_defaults(func=cmd_attribute)

    p_prop = sub.add_parser("propagate", help="raw two-factor uncertainty propagation")
    p_prop.add_argument("--beta", type=float, required=True,
                        help="dose-response coefficient, percent per sigma")
    p_prop.add_argument("--beta-sd", type=float, default=0.0)
    p_prop.add_argument("--dprime", type=float, required=True,
                        help="anthropogenic anomaly component, sigma")
    p_prop.add_argument("--dprime-sd", type=float, default=0.0)
    p_prop.add_argument("--seed", type=int, default=None)
    p_prop.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_prop.set_defaults(func=cmd_propagate)

    p_self = sub.add_parser("selftest", help="replay the bundled canonical scenario")
    p_self.add_argument("--set", action="append", metavar="KEY=VALUE", default=[])
    p_self.add_argument("--seed", type=int, default=None)
    p_self.add_argument("--samples", type=int, default=None)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
