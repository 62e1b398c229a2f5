"""Command-line interface.

Commands:
  attribute  run a scenario file and emit the report (default: human text)
  report     same pipeline, default format json (for piping/archiving)
  propagate  raw two-factor propagation from inline numeric flags
  selftest   replay the bundled syria_2010 scenario against its known answers

Every command validates a scenario with scenario.parse_scenario and runs it
through scenario.run_scenario; propagate builds its scenario from the flags.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
All report output goes to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import yaml

from . import __version__
from .engine import analytic_product_moments
from .scenario import (
    DEFAULT_SAMPLES,
    FORMATS,
    ScenarioError,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)

ENV_SEED = "ATTRISK_SEED"

# The scenario field each propagate flag fills; --dprime also sets the total.
PROPAGATE_FLAGS = {"anomaly_total": "--dprime", "anthropogenic.value": "--dprime",
                   "anthropogenic.dispersion": "--dprime-sd", "dose_response.value": "--beta",
                   "dose_response.dispersion": "--beta-sd", "mc.seed": "--seed",
                   "mc.samples": "--samples"}


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
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ScenarioError(f"{ENV_SEED} must be a non-negative integer, got {raw!r}",
                            ENV_SEED)
    return seed


def _load(args) -> "ScenarioConfig":
    if not os.path.isfile(args.scenario):
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


def cmd_propagate(args) -> int:
    # The flags become a linear scenario. Its total anomaly never falls below
    # D', so no decomposition warning fires; the total does not enter beta * D'.
    data = {
        "name": "propagate", "year": 0, "anomaly_total": max(args.dprime, 0.0),
        "anthropogenic": {"value": args.dprime, "dispersion": args.dprime_sd},
        "dose_response": {"kind": "linear", "value": args.beta, "dispersion": args.beta_sd},
        "mc": {"samples": args.samples},
    }
    if args.seed is not None:
        data["mc"]["seed"] = args.seed
    try:
        cfg = parse_scenario(data, default_seed=_env_default_seed())
    except ScenarioError as exc:
        flag = PROPAGATE_FLAGS.get(exc.field)
        if flag is None:
            raise
        raise ScenarioError(str(exc).replace(exc.field, flag), flag) from exc
    r = run_scenario(cfg)
    s = r.distribution_summary
    print(f"samples: {r.provenance['samples']}  seed: {r.provenance['seed']}")
    print(f"mean:   {s.mean:.4f}")
    print(f"median: {s.median:.4f}")
    print(f"IQR:    [{s.q25:.4f}, {s.q75:.4f}]")
    print(f"90%:    [{s.p05:.4f}, {s.p95:.4f}]")
    print(f"99%:    [{s.p005:.4f}, {s.p995:.4f}]")
    print(f"p_value (at or below 0): {r.p_value:.4f}")
    return 0


def _selftest_checks(cfg, bundle):
    """The seven regression checks against the known scenario answers."""
    attribution, s, p, dist = (bundle.attribution, bundle.distribution_summary,
                               bundle.p_value, bundle.distribution)
    exact_mean, exact_var = analytic_product_moments(cfg.dose_response.beta, cfg.anthropogenic)

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
    cfg = _load(args)
    checks = _selftest_checks(cfg, run_scenario(cfg))
    for name, value, target, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<22} {value:.4f}  (target {target})")
    passed = sum(ok for *_, ok in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


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
    p_self.set_defaults(func=cmd_selftest,
                        scenario=str(resources.files("attrisk") / "scenarios/syria_2010.yaml"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # usage/config error (2) or runtime failure (1)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ScenarioError, FileNotFoundError)) else 1


if __name__ == "__main__":
    sys.exit(main())
