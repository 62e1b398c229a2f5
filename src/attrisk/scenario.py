"""Scenario configuration loading, validation, execution, and report emission.

Scenarios are YAML files (nested key-value, comments allowed). Validation is
strict: unknown keys are rejected so typos cannot silently fall back to
defaults. A JSON report carries provenance (seed, sample count, a SHA-256
digest of the canonicalized config, tool version): it names the config that
produced it by its digest, but does not hold the config itself. A JSON report
is ``json.dumps(report, indent=2)`` plus a newline, its floats rounded to 12
significant digits, written in one pass from each number's ``%.12g`` text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .engine import (
    DoseResponse,
    RiskAttribution,
    integral_attribution,
    propagate,
)
from .uq import (
    SUMMARY_LEVELS,
    BoxWhiskerSummary,
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    summarize,
    tail_probability,
)

DEFAULT_SEED = 20150302
DEFAULT_SAMPLES = 1_000_000
DEFAULT_QUANTILES = tuple(sorted(SUMMARY_LEVELS.values()))
DEFAULT_HISTOGRAM_BINS = 80
DEFAULT_NULL_THRESHOLD = 0.0

# Flag threshold for D' draws implying a negative natural component.
EXCEEDANCE_FLAG_FRACTION = 0.01

# Bytes per sample (one float64 buffer, whose D' draws become the excess risk
# in place; chunk scratch is O(workers * CHUNK_SIZE)) and per histogram bin
# (its tuple of Python numbers and its report text: peak RSS of a run and
# emit grew ~730 B per bin in JSON, ~630 in CSV, at 1e6 bins on CPython
# 3.11); counts must fit in physical memory and the cgroup's memory limit.
_SAMPLE_BYTES, _BIN_BYTES = 8, 1024

# Each line boundary of str.splitlines, as repr escapes it: a name or a key is
# written on one line, in an error on stderr and in the human report alike.
_ONE_LINE = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}

_INT, _FLOAT, _MERGE = (f"tag:yaml.org,2002:{t}" for t in ("int", "float", "merge"))


def _core_schema_loader(base):
    """base, reading numbers by the YAML 1.2 core schema (YAML 1.2.2 §10.3.2)
    with decimal integers only: 010 is ten and 1e-3 a float, while 0x10, 1_000
    and 1:30 are strings. Bools, nulls, timestamps and merge keys resolve as
    in base, after the number rules. A key repeated in a mapping is refused, as
    YAML 1.2 requires (§3.2.1.1), where base keeps the last one."""
    numbers = [(_INT, re.compile(r"[-+]?[0-9]+$")),
               (_FLOAT, re.compile(r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"
                                   r"|[-+]?\.(?:inf|Inf|INF)$|\.(?:nan|NaN|NAN)$"))]
    resolvers = {first: [rule for rule in rules if rule[0] not in (_INT, _FLOAT)]
                 for first, rules in base.yaml_implicit_resolvers.items()}
    for first in "-+.0123456789":
        resolvers[first] = numbers + resolvers.get(first, [])

    class Loader(base):
        yaml_implicit_resolvers = resolvers

        def __init__(self, stream):
            super().__init__(stream)
            self.checked = set()  # the mapping nodes whose own keys were checked

        def flatten_mapping(self, node):
            # Only the scalar keys written in node, checked once, before << merges
            # other entries into it in place: a merged key may still be overridden,
            # and any other key is refused as unhashable.
            if node not in self.checked:
                self.checked.add(node)
                keys = set()
                for key_node, _ in node.value:
                    if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE:
                        if (key := self.construct_object(key_node)) in keys:
                            raise yaml.constructor.ConstructorError(
                                None, None, f"found duplicate key {key!r}", key_node.start_mark)
                        keys.add(key)
            super().flatten_mapping(node)

    Loader.add_constructor(_INT, lambda loader, node: int(loader.construct_scalar(node), 10))
    return Loader


# The one YAML loader for scenario files and --set values: libyaml's C parser
# where PyYAML was built with it, else the pure-Python one. Both use PyYAML's
# safe constructor and the same resolver, so they build the same data and
# reject the same tags; libyaml alone also accepts a tab after a mapping colon.
YAML_LOADER = _core_schema_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class ScenarioError(ValueError):
    """An input refused: a file or configuration error, or a run the
    configuration cannot support (e.g. a surface that does not cover the
    anomaly), carrying the offending field path. A run that fails otherwise
    raises RuntimeError, its cause chained."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    year: int
    anomaly_total: float
    anthropogenic: UncertainScalar
    dose_response: DoseResponse
    seed: int
    samples: int
    quantiles: tuple[float, ...]
    histogram_bins: int
    null_threshold: float

    def canonical_dict(self) -> dict:
        """Fully-defaulted, fixed-order plain-dict form of the config."""
        beta = self.dose_response.beta
        if beta is not None:
            dr = {"kind": "linear", "value": beta.value, "dispersion": beta.dispersion}
        else:
            dr = {"kind": "surface",
                  "knots": [[d, rr] for d, rr in self.dose_response.knots]}
        return {
            "name": self.name,
            "year": self.year,
            "anomaly_total": self.anomaly_total,
            "anthropogenic": {"value": self.anthropogenic.value,
                              "dispersion": self.anthropogenic.dispersion},
            "dose_response": dr,
            "mc": {"seed": self.seed, "samples": self.samples},
            "report": {"quantiles": list(self.quantiles),
                       "histogram_bins": self.histogram_bins,
                       "null_threshold": self.null_threshold},
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON serialization of the config."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}", path)
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str):
    unknown = set(mapping) - allowed
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ScenarioError(f"unknown key: {where}", where)


def _finite(v, path) -> float:
    """v as a float, if it is a finite number (not a bool or a quoted number)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {v!r}", path)
    try:
        f = float(v)
    except OverflowError:  # an int beyond the float range
        f = math.inf
    if not math.isfinite(f):
        raise ScenarioError(f"{path}: must be finite, got {v}", path)
    return f


def _integer(value, path, minimum, requirement) -> int:
    """value, if it is an integer (not a bool) of at least minimum; otherwise the
    error "{path}: {requirement}"."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioError(f"{path}: {requirement}", path)
    return value


_REQUIRED = object()


def _field(mapping, key, path, read, default=_REQUIRED):
    """read(mapping[key], path) where key is present; where it is absent,
    default, unread, or the missing-field error if the field has no default."""
    if key in mapping:
        return read(mapping[key], path)
    if default is _REQUIRED:
        raise ScenarioError(f"missing required field: {path}", path)
    return default


def _uncertain(mapping, path) -> UncertainScalar:
    m = _require_mapping(mapping, path)
    _check_keys(m, {"value", "dispersion"}, path)
    value = _field(m, "value", f"{path}.value", _finite)
    dispersion = _field(m, "dispersion", f"{path}.dispersion", _finite, 0.0)
    if dispersion < 0:
        raise ScenarioError(f"{path}.dispersion: must be >= 0", f"{path}.dispersion")
    return UncertainScalar(value, dispersion)


def _physical_memory() -> int | None:
    """Bytes of physical memory: os.sysconf on Unix, GlobalMemoryStatusEx on
    Windows, and None where the platform has neither."""
    if hasattr(os, "sysconf"):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    import ctypes  # only here: an import that Unix runs never pay for

    class MemoryStatusEx(ctypes.Structure):  # MEMORYSTATUSEX: 2 DWORDs, 7 ULONGLONGs
        _fields_ = [("length", ctypes.c_uint32), ("load", ctypes.c_uint32),
                    ("total_phys", ctypes.c_uint64), ("rest", ctypes.c_uint64 * 6)]

    status = MemoryStatusEx(length=ctypes.sizeof(MemoryStatusEx))
    windll = getattr(ctypes, "windll", None)
    if windll is None or not windll.kernel32.GlobalMemoryStatusEx(ctypes.byref(status)):
        return None
    return status.total_phys


def _text(path: str) -> str:
    """A small text file's contents, or "" where it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError):
        return ""


@functools.cache
def _cgroup_memory(root: str = "/") -> tuple[int, str] | None:
    """The smallest memory limit on this process's cgroup (as /proc/self/cgroup
    names it) or an ancestor, and the file that sets it: v2 ``memory.max``
    under /sys/fs/cgroup or v1 ``memory.limit_in_bytes`` under its memory
    directory, both read under root. "max" and v1's 9223372036854771712 are no
    limit; None where none is set. Read once per process."""
    limits = []
    for line in _text(os.path.join(root, "proc/self/cgroup")).splitlines():
        controllers, _, path = line.partition(":")[2].partition(":")  # ID:controllers:path
        v1 = "memory" in controllers.split(",")
        if controllers and not v1:
            continue
        base, name = ("memory", "memory.limit_in_bytes") if v1 else ("", "memory.max")
        # A container may mount its own cgroup as the root: each level up to it.
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            file = os.path.join(root, "sys/fs/cgroup", base, *parts[:depth], name)
            text = _text(file).strip()
            if text.isdigit() and int(text) < 9223372036854771712:
                limits.append((int(text), file))
    return min(limits, default=None)


def _check_fits(count: int, item_bytes: int, path: str):
    need, physical, cgroup = count * item_bytes, _physical_memory(), _cgroup_memory()
    # The smaller bound is the one an error names. Where neither can be read,
    # a count too large fails when its array is allocated.
    bounds = [(physical, "of physical memory")] if physical is not None else []
    if cgroup is not None:
        bounds.append((cgroup[0], f"limit of {cgroup[1]}"))
    have, what = min(bounds, default=(math.inf, ""))
    if need > have:
        raise ScenarioError(f"{path}: {count} needs {need / 2**30:.3g} GiB of arrays, "
                            f"more than the {have / 2**30:.3g} GiB {what}", path)


def _dose_response(mapping, path) -> DoseResponse:
    m = _require_mapping(mapping, path)
    kind = m.get("kind", "linear")
    if kind == "linear":
        _check_keys(m, {"kind", "value", "dispersion"}, path)
        return DoseResponse(beta=_uncertain({k: v for k, v in m.items() if k != "kind"}, path))
    if kind == "surface":
        _check_keys(m, {"kind", "knots"}, path)
        knots = m.get("knots")
        if not isinstance(knots, list) or any(
                not isinstance(k, list) or len(k) != 2 for k in knots):
            raise ScenarioError(f"{path}.knots: expected a list of [D, relative_risk] pairs",
                                f"{path}.knots")
        knots = [[_finite(v, f"{path}.knots") for v in knot] for knot in knots]
        try:
            return DoseResponse(knots=knots)
        except ValueError as exc:
            raise ScenarioError(f"{path}.knots: {exc}", f"{path}.knots") from exc
    raise ScenarioError(f"{path}.kind: must be 'linear' or 'surface', got {kind!r}",
                        f"{path}.kind")


def parse_scenario(data, default_seed: int | None = None) -> ScenarioConfig:
    """Validate a raw mapping into a ScenarioConfig with defaults filled.

    default_seed, when given, replaces the built-in default seed for configs
    that do not set mc.seed themselves (lowest-precedence override).
    """
    top = _require_mapping(data, "scenario")
    _check_keys(top, {"name", "year", "anomaly_total", "anthropogenic",
                      "dose_response", "mc", "report"}, "")
    name = top.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: required non-empty string", "name")
    year = _integer(top.get("year"), "year", -math.inf, "required integer")
    anomaly_total = _field(top, "anomaly_total", "anomaly_total", _finite)
    if anomaly_total < 0:
        raise ScenarioError("anomaly_total: must be >= 0 (positive = adverse)",
                            "anomaly_total")
    anthropogenic = _field(top, "anthropogenic", "anthropogenic", _uncertain)
    dose_response = _field(top, "dose_response", "dose_response", _dose_response)

    mc = _require_mapping(top.get("mc", {}), "mc")
    _check_keys(mc, {"seed", "samples"}, "mc")
    seed = _integer(mc.get("seed", default_seed if default_seed is not None else DEFAULT_SEED),
                    "mc.seed", 0, "must be a non-negative integer")
    samples = _integer(mc.get("samples", DEFAULT_SAMPLES), "mc.samples", 2,
                       "must be an integer >= 2")
    _check_fits(samples, _SAMPLE_BYTES, "mc.samples")

    report = _require_mapping(top.get("report", {}), "report")
    _check_keys(report, {"quantiles", "histogram_bins", "null_threshold"}, "report")
    quantiles = report.get("quantiles", list(DEFAULT_QUANTILES))
    if (not isinstance(quantiles, list) or not quantiles
            or any(isinstance(q, bool) or not isinstance(q, (int, float)) for q in quantiles)
            or any(not 0 <= q <= 1 for q in quantiles)
            or sorted(quantiles) != list(quantiles)):
        raise ScenarioError("report.quantiles: must be a sorted list of values in [0, 1]",
                            "report.quantiles")
    bins = _integer(report.get("histogram_bins", DEFAULT_HISTOGRAM_BINS),
                    "report.histogram_bins", 1, "must be a positive integer")
    _check_fits(bins, _BIN_BYTES, "report.histogram_bins")
    null_threshold = _field(report, "null_threshold", "report.null_threshold", _finite,
                            DEFAULT_NULL_THRESHOLD)

    return ScenarioConfig(
        name=name, year=year, anomaly_total=anomaly_total,
        anthropogenic=anthropogenic, dose_response=dose_response,
        seed=seed, samples=samples,
        quantiles=tuple(float(q) for q in quantiles),
        histogram_bins=bins, null_threshold=null_threshold,
    )


def apply_overrides(data: dict, overrides: dict[str, object]) -> dict:
    """Apply dotted-path overrides (e.g. 'mc.seed') to a raw config mapping."""
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = data
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ScenarioError(f"override path not a mapping: {dotted}", dotted)
            node = nxt
        node[parts[-1]] = value
    return data


def _parse_error(text: str, exc: Exception) -> str:
    """"parse error at line L, column C: what" (1-based) for the YAML error exc
    in text, naming the place once, where PyYAML's own text adds a line for
    each place; "parse error: what" for an error with no place, such as a
    constructor's ValueError."""
    mark, what = getattr(exc, "problem_mark", None), str(exc).partition("\n")[0]
    if isinstance(exc, yaml.MarkedYAMLError):
        what = ", ".join(filter(None, [exc.context, exc.problem, exc.note]))
    if mark:
        return f"parse error at line {mark.line + 1}, column {mark.column + 1}: {what}"
    if not isinstance(exc, yaml.reader.ReaderError):
        return f"parse error: {what}"
    # A reader error has no mark, but both readers name the code point they
    # refused and stop at its first occurrence.
    head = text[:text.index(chr(exc.character))]
    lines = re.split("\r\n|[\r\n\x85\u2028\u2029]", head)
    return f"parse error at line {len(lines)}, column {len(lines[-1]) + 1}: {what}"


def load_scenario(path, overrides: dict[str, object] | None = None,
                  default_seed: int | None = None) -> ScenarioConfig:
    """Load (with ``YAML_LOADER``: PyYAML's ``CSafeLoader`` where installed,
    else ``SafeLoader``), override, and strictly validate a scenario file."""
    if not os.path.isfile(path):  # a device or a FIFO would be read as a document
        raise ScenarioError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: not readable: {exc.strerror}") from exc
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date such as 2010-13-45
        raise ScenarioError(f"{path}: {_parse_error(text, exc)}") from exc
    if overrides:
        data = apply_overrides(_require_mapping(data, "scenario"), overrides)
    return parse_scenario(data, default_seed=default_seed)


@dataclass(frozen=True)
class ReportBundle:
    """Everything a scenario run reports: point estimates, distribution
    summary, p-value, quantile table, histogram, and provenance. ``distribution``
    (set by run_scenario only, never serialized) is the one they come from."""

    scenario: str
    year: int
    attribution: RiskAttribution
    distribution_summary: BoxWhiskerSummary
    p_value: float
    quantiles: tuple[tuple[float, float], ...]
    histogram: tuple[tuple[float, float, int], ...]
    provenance: dict = field(hash=False)
    distribution: EmpiricalDistribution | None = field(default=None, compare=False, repr=False)


def run_scenario(cfg: ScenarioConfig) -> ReportBundle:
    """Run the full attribution pipeline for a validated config.

    Each input is drawn once, into one n-array that each chunk turns into its
    product or surface values in place; the exceedance fraction is counted on
    the same D' draws, chunk by chunk.
    """
    try:
        # A value that leaves the float range is refused below (or, among the
        # samples, by the distribution), so numpy need not warn on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            attribution = integral_attribution(cfg.dose_response, cfg.anomaly_total,
                                               cfg.anthropogenic)
            dist, exceedance = propagate(cfg.dose_response, cfg.anomaly_total,
                                         cfg.anthropogenic, cfg.seed, cfg.samples)
            summary = summarize(dist)
            p_value = tail_probability(dist, cfg.null_threshold)
            hist = tuple(histogram(dist, cfg.histogram_bins))
            quantile_rows = tuple((q, percentile(dist, q)) for q in cfg.quantiles)
        # JSON has no NaN or Infinity (RFC 8259): a run that left the float
        # range reports nothing. Each bin's upper edge is the next one's lower.
        for key, value in [*vars(attribution).items(), *vars(summary).items(),
                           *(("quantile", v) for _, v in quantile_rows),
                           *(("histogram edge", lo) for lo, _, _ in hist),
                           ("histogram edge", hist[-1][1])]:
            if not math.isfinite(value):
                raise ValueError(f"{key} is {value}, not a finite number")
        provenance = {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "config_digest": cfg.digest(),
            "tool_version": __version__,
            "anthropogenic_draws_above_total_fraction": exceedance,
        }
        return ReportBundle(
            scenario=cfg.name, year=cfg.year, attribution=attribution,
            distribution_summary=summary, p_value=p_value,
            quantiles=quantile_rows, histogram=hist, provenance=provenance,
            distribution=dist,
        )
    except ValueError as exc:  # e.g. an uncovered anomaly: the config asks the impossible
        raise ScenarioError(f"scenario '{cfg.name}': {exc}") from exc
    except Exception as exc:  # e.g. MemoryError
        raise RuntimeError(f"scenario '{cfg.name}': {exc}") from exc


# json's text for the floats whose repr is no JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x) -> str:
    """x rounded to 12 significant digits, as json writes the float. A fixed %g
    text lies in [1e-4, 1e12), where repr prints the same digits."""
    text = "%.12g" % x
    if "e" in text or "n" in text:  # repr may differ in exponent form; inf, nan are no JSON
        text = repr(float(text))
        return _NON_FINITE.get(text, text)
    return text if "." in text else text + ".0"


def _json_object(numbers: dict) -> str:
    """Numbers under plain names, as json.dumps(indent=2) writes the dict one level in."""
    pairs = ",\n    ".join(f'"{name}": {_json_float(v)}' for name, v in numbers.items())
    return "{\n    " + pairs + "\n  }"


def _json_rows(rows: list[str]) -> str:
    """A list of lists, each row the joined text of its items, one level in."""
    if not rows:
        return "[]"
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"


def _point_estimates(a: RiskAttribution) -> dict[str, float]:
    """The report's point estimates of a, by their report names."""
    return {"natural_excess_percent": a.natural_excess,
            "anthropogenic_excess_percent": a.anthropogenic_excess,
            "total_relative_risk": a.total_relative_risk}


def _emit_json(r: ReportBundle) -> str:
    """The JSON report (see the module docstring) of r, in one pass over r."""
    quantiles = [f"{_json_float(q)},\n      {_json_float(v)}" for q, v in r.quantiles]
    histogram, hi, hi_text = [], object(), ""
    for lo, upper, count in r.histogram:
        # Reuse the previous upper edge's text only for the same object: equal
        # values can differ in text, as -0.0 and 0.0 do.
        lo_text = hi_text if lo is hi else _json_float(lo)
        hi, hi_text = upper, _json_float(upper)
        histogram.append(f"{lo_text},\n      {hi_text},\n      "
                         + (repr(count) if type(count) is int else json.dumps(count)))
    provenance = json.dumps({key: float(f"{v:.12g}") if isinstance(v, float) else v
                             for key, v in r.provenance.items()}, indent=2).replace("\n", "\n  ")
    return (f'{{\n  "scenario": {json.dumps(r.scenario)},\n  "year": {json.dumps(r.year)},\n'
            f'  "attribution": {_json_object(_point_estimates(r.attribution))},\n'
            f'  "distribution_summary": {_json_object(vars(r.distribution_summary))},\n'
            f'  "p_value": {_json_float(r.p_value)},\n  "quantiles": {_json_rows(quantiles)},\n'
            f'  "histogram": {_json_rows(histogram)},\n  "provenance": {provenance}\n}}\n')


def _emit_human(r: ReportBundle) -> str:
    s = r.distribution_summary
    a = r.attribution
    lines = [
        f"Scenario: {r.scenario.translate(_ONE_LINE)} ({r.year})",
        (f"Point estimates: natural component: {a.natural_excess:.2f}%; "
         f"anthropogenic component: {a.anthropogenic_excess:.2f}% "
         f"(90% CI [{s.p05:.1f}, {s.p95:.1f}]); p = {r.p_value:.4f}"),
        f"Total relative risk multiplier: {a.total_relative_risk:.4f}",
        (f"Distribution of anthropogenic excess risk "
         f"(n={r.provenance['samples']}, seed={r.provenance['seed']}):"),
        f"  mean {s.mean:.2f}%  median {s.median:.2f}%",
        f"  IQR [{s.q25:.2f}, {s.q75:.2f}]  90% [{s.p05:.2f}, {s.p95:.2f}]  "
        f"99% [{s.p005:.2f}, {s.p995:.2f}]",
        f"Config digest: {r.provenance['config_digest']}",
    ]
    frac = r.provenance["anthropogenic_draws_above_total_fraction"]
    if frac > EXCEEDANCE_FLAG_FRACTION:
        lines.append(f"WARNING: {100 * frac:.1f}% of anthropogenic draws exceed the "
                     "total anomaly (negative natural component implied)")
    return "\n".join(lines) + "\n"


def _g6(x: float) -> str:
    return f"{x:.6g}"


def _emit_csv(r: ReportBundle) -> str:
    rows = [("record_type", "name", "lower", "upper", "value")]
    for name, value in _point_estimates(r.attribution).items():
        rows.append(("point", name, "", "", _g6(value)))
    for name, value in vars(r.distribution_summary).items():
        rows.append(("summary", name, "", "", _g6(value)))
    rows.append(("test", "p_value", "", "", _g6(r.p_value)))
    for q, v in r.quantiles:
        rows.append(("quantile", _g6(q), "", "", _g6(v)))
    for i, (lo, hi, count) in enumerate(r.histogram):
        rows.append(("histogram", str(i), _g6(lo), _g6(hi), str(count)))
    return "\n".join(",".join(row) for row in rows) + "\n"


#: Each report format's writer; FORMATS, the --format choices, keeps this order.
_EMITTERS = {"human": _emit_human, "csv": _emit_csv, "json": _emit_json}
FORMATS = tuple(_EMITTERS)


def emit_report(r: ReportBundle, format: str = "human") -> bytes:
    """Serialize a report bundle as human text, CSV, or JSON."""
    if format not in _EMITTERS:
        raise ValueError(f"unknown report format: {format!r} (expected one of {FORMATS})")
    return _EMITTERS[format](r).encode("utf-8")
