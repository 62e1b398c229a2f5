"""Command-line interface.

Commands:
  attribute  run a scenario file and emit the report (default: human text)
  report     same pipeline, default format json (for piping/archiving)
  propagate  run the bundled propagate template, its fields filled by the flags
  selftest   replay the bundled syria_2010 scenario against its known answers

Every command loads a scenario file with scenario.load_scenario and runs it
through scenario.run_scenario; propagate and selftest load a bundled one.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error, 130 interrupted.
All report output goes to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import yaml

from . import __version__, scenario
from .engine import analytic_product_moments
from .scenario import FORMATS, ScenarioError, emit_report, load_scenario, run_scenario

ENV_SEED = "ATTRISK_SEED"
# The bundled scenarios, beside this module; os.path, unlike importlib.resources,
# costs no import.
SCENARIOS = os.path.join(os.path.dirname(__file__), "scenarios")

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
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        if "" in key.split("."):
            raise ScenarioError(f"--set expects a dotted key, got {pair!r}")
        overrides[key] = _read(f"--set {key}", raw)
    return overrides


def _env_default_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    return scenario._integer(_read(ENV_SEED, raw), ENV_SEED, 0, "must be a non-negative integer")


def _load(args) -> scenario.ScenarioConfig:
    """The command's scenario: the file args.scenario with its --set overrides,
    then each numeric flag given, on its field. An error in a field that a flag
    filled names the flag."""
    flags = {field: _read(flag, raw) for flag, field in FLAG_FIELDS.items()
             if (raw := getattr(args, flag[2:].replace("-", "_"), None)) is not None}
    overrides = {**_parse_set(getattr(args, "set", [])), **flags}
    default_seed = _env_default_seed()
    try:
        # Precedence: built-in default < ATTRISK_SEED < file < --set < flags.
        return load_scenario(args.scenario, overrides, default_seed=default_seed)
    except ScenarioError as exc:
        flag = next((f for f, field in FLAG_FIELDS.items()
                     if field == exc.field and field in flags), None)
        if flag is None:
            raise
        raise ScenarioError(str(exc).replace(exc.field, flag, 1), flag) from exc


def _write(payload: bytes, out_path: str | None = None):
    """Write payload whole to the file out_path, else to stdout, or raise one
    error that names the target and the bytes it took. A regular file out_path,
    or a new one, is written to a temporary file beside it, which replaces it
    only once whole and is removed otherwise; a device or FIFO is written as is."""
    target = f"--out {out_path}" if out_path else "stdout"
    tmp = None
    if out_path:
        path = os.path.realpath(out_path)
        if os.path.isfile(path) or not os.path.exists(path):
            tmp = os.path.join(os.path.dirname(path),
                               f".{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            fh = open(tmp or path, "xb" if tmp else "wb", buffering=0)
        except OSError as exc:
            raise ScenarioError(f"{target}: cannot write: {exc.strerror}", "--out") from exc
    elif sys.stdout is None:
        raise RuntimeError("stdout is closed")
    else:  # its unbuffered file, whose write tells how many bytes it took
        fh = getattr(sys.stdout.buffer, "raw", sys.stdout.buffer)
    written, reason = 0, "no more taken"
    try:
        try:
            while written < len(payload) and (n := fh.write(memoryview(payload)[written:])):
                written += n
        except OSError as exc:
            reason = exc.strerror or exc
        if out_path:
            fh.close()
        if written < len(payload):
            raise RuntimeError(f"{target}: wrote {written} of {len(payload)} bytes: {reason}")
        if tmp:
            os.replace(tmp, path)
            tmp = None
    finally:  # a short write, an interrupt or a failed replace leaves no temporary file
        if tmp:
            fh.close()
            os.remove(tmp)


def cmd_attribute(args) -> int:
    cfg = _load(args)
    if args.out and os.path.exists(args.out) and os.path.samefile(args.out, args.scenario):
        raise ScenarioError(f"--out {args.out}: is the scenario file itself", "--out")
    bundle = run_scenario(cfg)
    _write(emit_report(bundle, args.format), args.out)
    return 0


def cmd_propagate(args) -> int:
    r = run_scenario(_load(args))
    s = r.distribution_summary
    _write(f"samples: {r.provenance['samples']}  seed: {r.provenance['seed']}\n"
           f"mean:   {s.mean:.4f}\n"
           f"median: {s.median:.4f}\n"
           f"IQR:    [{s.q25:.4f}, {s.q75:.4f}]\n"
           f"90%:    [{s.p05:.4f}, {s.p95:.4f}]\n"
           f"99%:    [{s.p005:.4f}, {s.p995:.4f}]\n"
           f"p_value (at or below 0): {r.p_value:.4f}\n".encode())
    return 0


def _selftest_checks(cfg, bundle):
    """The seven regression checks against the known scenario answers."""
    attribution, s, p = bundle.attribution, bundle.distribution_summary, bundle.p_value
    exact_mean, exact_var = analytic_product_moments(cfg.dose_response.beta, cfg.anthropogenic)

    near = [("natural_point", attribution.natural_excess, 4.96, 0.06),
            ("anthropogenic_point", attribution.anthropogenic_excess, 3.82, 0.03),
            ("median", s.median, 3.6, 0.15),
            ("p05", s.p05, 1.1, 0.3),
            ("p95", s.p95, 7.3, 0.3)]
    return [
        *((name, value, f"{target} ± {tol}", abs(value - target) <= tol)
          for name, value, target, tol in near),
        ("null_rejection", p, "< 0.01 and 0.0033 ± 0.001",
         p < 0.01 and abs(p - 0.0033) <= 0.001),
        ("mc_moments", s.mean, f"mean {exact_mean:.4f} ± 0.01, var ±2%",
         abs(s.mean - exact_mean) <= 0.01
         and abs(bundle.distribution.variance - exact_var) <= 0.02 * exact_var),
    ]


def cmd_selftest(args) -> int:
    cfg = _load(args)
    if cfg.dose_response.beta is None:
        raise ScenarioError("dose_response: selftest checks the linear beta * D' answers, "
                            "not a surface", "dose_response")
    checks = _selftest_checks(cfg, run_scenario(cfg))
    passed = sum(ok for *_, ok in checks)
    _write("".join([*(f"{'PASS' if ok else 'FAIL'}  {name:<22} {value:.4f}  (target {target})\n"
                      for name, value, target, ok in checks),
                    f"{passed}/{len(checks)} checks passed\n"]).encode())
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attrisk", description=(
        "Attribute excess outcome risk to the anthropogenic component of a climate anomaly."))
    parser.add_argument("--version", action="version", version=f"attrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Parents share their actions: no set_defaults below may name a dest they declare.
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--seed", help="random seed (fills mc.seed)")
    mc.add_argument("--samples", help="Monte Carlo sample count (fills mc.samples)")
    config = argparse.ArgumentParser(add_help=False, parents=[mc])
    config.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                        help="override a config field by dotted path (repeatable)")

    for name, fmt, summary in [("attribute", "human", "run a scenario and emit its report"),
                               ("report", "json", "run a scenario, emit structured report")]:
        p = sub.add_parser(name, parents=[config], help=summary)
        p.add_argument("scenario", help="path to a scenario YAML file")
        p.add_argument("--format", choices=FORMATS, default=fmt,
                       help="report format (default: %(default)s)")
        p.add_argument("--out", help="write report to this path")
        p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("propagate", parents=[mc], help="raw two-factor uncertainty propagation")
    p.add_argument("--beta", required=True, help="dose-response coefficient, percent per sigma")
    p.add_argument("--beta-sd", help="standard deviation of --beta (default 0)")
    p.add_argument("--dprime", required=True, help="anthropogenic anomaly component, sigma")
    p.add_argument("--dprime-sd", help="standard deviation of --dprime (default 0)")
    p.set_defaults(func=cmd_propagate, scenario=os.path.join(SCENARIOS, "propagate.yaml"))

    p = sub.add_parser("selftest", parents=[config], help="replay the bundled canonical scenario")
    p.set_defaults(func=cmd_selftest, scenario=os.path.join(SCENARIOS, "syria_2010.yaml"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # usage/config error (2) or runtime failure (1)
        print(f"error: {str(exc).translate(scenario._ONE_LINE)}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 1


def run():
    """The program: main(), then exit without the collector walking the heap
    that the finalization's collections would otherwise visit."""
    code = main()
    gc.freeze()  # the report is written; no object here needs collecting
    sys.exit(code)


if __name__ == "__main__":
    run()
