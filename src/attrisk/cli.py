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

from . import __version__, scenario
from .engine import analytic_product_moments
from .scenario import (
    FORMATS,
    ScenarioError,
    apply_overrides,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)

ENV_SEED = "ATTRISK_SEED"

# The scenario field each numeric flag fills.
FLAG_FIELDS = {"--seed": "mc.seed", "--samples": "mc.samples",
               "--beta": "dose_response.value", "--beta-sd": "dose_response.dispersion",
               "--dprime": "anthropogenic.value", "--dprime-sd": "anthropogenic.dispersion"}


def _read(name: str, raw: str):
    """raw (from argv or the environment) read as one YAML value by the scenario
    number rules; an error names name."""
    try:
        return yaml.load(raw, Loader=scenario.YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{name}: not a YAML value: {raw!r}", name) from exc
    except ValueError as exc:  # a date such as 2010-13-45
        raise ScenarioError(f"{name}: {raw!r}: {exc}", name) from exc


def _parse_set(pairs: list[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        if not key:
            raise ScenarioError(f"--set expects a dotted key, got {pair!r}")
        overrides[key] = _read(f"--set {key}", raw)
    return overrides


def _env_default_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    return scenario._integer(_read(ENV_SEED, raw), ENV_SEED, 0, "must be a non-negative integer")


def _load(args, template: dict | None = None) -> "ScenarioConfig":
    """The command's scenario: propagate's template, or the file args.scenario
    with its --set overrides; then each numeric flag given, on its field. An
    error in a field that a flag filled names the flag."""
    flags = {field: _read(flag, raw) for flag, field in FLAG_FIELDS.items()
             if (raw := getattr(args, flag[2:].replace("-", "_"), None)) is not None}
    overrides = {**_parse_set(getattr(args, "set", [])), **flags}
    default_seed = _env_default_seed()
    try:
        if template is None:
            # Precedence: built-in default < ATTRISK_SEED < file < --set < flags.
            return load_scenario(args.scenario, overrides, default_seed=default_seed)
        data = apply_overrides(template, overrides)
        # D' also sets the total, which never falls below it, so no
        # decomposition warning fires; the total does not enter beta * D'.
        data["anomaly_total"] = max(scenario._finite(flags["anthropogenic.value"],
                                                     "anthropogenic.value"), 0.0)
        return parse_scenario(data, default_seed=default_seed)
    except ScenarioError as exc:
        flag = next((f for f, field in FLAG_FIELDS.items()
                     if field == exc.field and field in flags), None)
        if flag is None:
            raise
        raise ScenarioError(str(exc).replace(exc.field, flag, 1), flag) from exc


def _write(payload: bytes, out_path: str | None):
    if out_path:
        try:
            fh = open(out_path, "wb")
        except OSError as exc:
            raise ScenarioError(f"--out {out_path}: cannot write: {exc.strerror}",
                                "--out") from exc
        with fh:
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
    cfg = _load(args, {"name": "propagate", "year": 0, "dose_response": {"kind": "linear"}})
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
    if cfg.dose_response.beta is None:
        raise ScenarioError("dose_response: selftest checks the linear beta * D' answers, "
                            "not a surface", "dose_response")
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
        p.add_argument("--seed")
        p.add_argument("--samples")

    p_attr = sub.add_parser("attribute", help="run a scenario and emit its report")
    add_scenario_args(p_attr, "human")
    p_attr.set_defaults(func=cmd_attribute)

    p_rep = sub.add_parser("report", help="run a scenario, emit structured report")
    add_scenario_args(p_rep, "json")
    p_rep.set_defaults(func=cmd_attribute)

    p_prop = sub.add_parser("propagate", help="raw two-factor uncertainty propagation")
    p_prop.add_argument("--beta", required=True,
                        help="dose-response coefficient, percent per sigma")
    p_prop.add_argument("--beta-sd")
    p_prop.add_argument("--dprime", required=True,
                        help="anthropogenic anomaly component, sigma")
    p_prop.add_argument("--dprime-sd")
    p_prop.add_argument("--seed")
    p_prop.add_argument("--samples")
    p_prop.set_defaults(func=cmd_propagate)

    p_self = sub.add_parser("selftest", help="replay the bundled canonical scenario")
    p_self.add_argument("--set", action="append", metavar="KEY=VALUE", default=[])
    p_self.add_argument("--seed")
    p_self.add_argument("--samples")
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
        return 2 if isinstance(exc, ScenarioError) else 1


if __name__ == "__main__":
    sys.exit(main())
