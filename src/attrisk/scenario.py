"""Scenario configuration loading, validation, execution, and report emission.

Scenarios are YAML files (nested key-value, comments allowed). Validation is
strict: unknown keys are rejected so typos cannot silently fall back to
defaults. Reports carry provenance (seed, sample count, a SHA-256 digest of
the canonicalized config, tool version) so results are reproducible from the
report alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import yaml

from . import __version__
from .engine import (
    DoseResponse,
    ResponseKind,
    RiskAttribution,
    decompose_anomaly,
    integral_attribution,
    linear_attribution,
    propagate,
)
from .uq import (
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
DEFAULT_QUANTILES = (0.005, 0.05, 0.25, 0.5, 0.75, 0.95, 0.995)
DEFAULT_HISTOGRAM_BINS = 80
DEFAULT_NULL_THRESHOLD = 0.0

# Flag threshold for D' draws implying a negative natural component.
EXCEEDANCE_FLAG_FRACTION = 0.01

# Array bytes per sample (one float64 buffer, whose D' draws become the excess
# risk in place; chunk scratch is O(workers * CHUNK_SIZE)) and per histogram
# bin (edge and count); counts must fit in physical memory.
_SAMPLE_BYTES, _BIN_BYTES = 8, 16

FORMATS = ("human", "csv", "json")


class ScenarioError(ValueError):
    """Configuration error, or a run the configuration cannot support (e.g. a
    surface that does not cover the anomaly), carrying the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class ScenarioRuntimeError(RuntimeError):
    """A scenario failed while running (not a configuration error); the
    original exception is its ``__cause__``."""


class UnknownKeyError(ScenarioError):
    pass


class ParseError(ScenarioError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    year: int
    anomaly_total: float
    anthropogenic: UncertainScalar
    dose_response: DoseResponse
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    histogram_bins: int = DEFAULT_HISTOGRAM_BINS
    null_threshold: float = DEFAULT_NULL_THRESHOLD

    def canonical_dict(self) -> dict:
        """Fully-defaulted, fixed-order plain-dict form of the config."""
        if self.dose_response.kind is ResponseKind.LINEAR:
            dr = {"kind": "linear",
                  "value": self.dose_response.beta.value,
                  "dispersion": self.dose_response.beta.dispersion}
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
        raise UnknownKeyError(f"unknown key: {where}", where)


def _number(mapping, key, path, default=None, required=False):
    if key not in mapping:
        if required:
            raise ScenarioError(f"missing required field: {path}", path)
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {v!r}", path)
    if not math.isfinite(v):
        raise ScenarioError(f"{path}: must be finite, got {v}", path)
    return float(v)


def _uncertain(mapping, path) -> UncertainScalar:
    m = _require_mapping(mapping, path)
    _check_keys(m, {"value", "dispersion"}, path)
    value = _number(m, "value", f"{path}.value", required=True)
    dispersion = _number(m, "dispersion", f"{path}.dispersion", default=0.0)
    if dispersion < 0:
        raise ScenarioError(f"{path}.dispersion: must be >= 0", f"{path}.dispersion")
    return UncertainScalar(value, dispersion)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(count: int, item_bytes: int, path: str):
    need, have = count * item_bytes, _physical_memory()
    if need > have:
        raise ScenarioError(f"{path}: {count} needs {need / 2**30:.3g} GiB of arrays, "
                            f"more than the {have / 2**30:.3g} GiB of physical memory", path)


def _dose_response(mapping) -> DoseResponse:
    path = "dose_response"
    m = _require_mapping(mapping, path)
    kind = m.get("kind", "linear")
    if kind == "linear":
        _check_keys(m, {"kind", "value", "dispersion"}, path)
        return DoseResponse.linear(_uncertain({k: v for k, v in m.items() if k != "kind"}, path))
    if kind == "surface":
        _check_keys(m, {"kind", "knots"}, path)
        knots = m.get("knots")
        if not isinstance(knots, list) or any(
                not isinstance(k, list) or len(k) != 2 for k in knots or []):
            raise ScenarioError(f"{path}.knots: expected a list of [D, relative_risk] pairs",
                                f"{path}.knots")
        try:
            return DoseResponse.surface(knots)
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
    year = top.get("year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ScenarioError("year: required integer", "year")
    anomaly_total = _number(top, "anomaly_total", "anomaly_total", required=True)
    if anomaly_total < 0:
        raise ScenarioError("anomaly_total: must be >= 0 (positive = adverse)",
                            "anomaly_total")
    if "anthropogenic" not in top:
        raise ScenarioError("missing required field: anthropogenic", "anthropogenic")
    anthropogenic = _uncertain(top["anthropogenic"], "anthropogenic")
    if "dose_response" not in top:
        raise ScenarioError("missing required field: dose_response", "dose_response")
    dose_response = _dose_response(top["dose_response"])

    mc = _require_mapping(top.get("mc", {}), "mc")
    _check_keys(mc, {"seed", "samples"}, "mc")
    seed = mc.get("seed", default_seed if default_seed is not None else DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("mc.seed: must be a non-negative integer", "mc.seed")
    samples = mc.get("samples", DEFAULT_SAMPLES)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ScenarioError("mc.samples: must be an integer >= 2", "mc.samples")
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
    bins = report.get("histogram_bins", DEFAULT_HISTOGRAM_BINS)
    if not isinstance(bins, int) or isinstance(bins, bool) or bins < 1:
        raise ScenarioError("report.histogram_bins: must be a positive integer",
                            "report.histogram_bins")
    _check_fits(bins, _BIN_BYTES, "report.histogram_bins")
    null_threshold = _number(report, "null_threshold", "report.null_threshold",
                             default=DEFAULT_NULL_THRESHOLD)

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
                raise UnknownKeyError(f"override path not a mapping: {dotted}", dotted)
            node = nxt
        node[parts[-1]] = value
    return data


def load_scenario(path, overrides: dict[str, object] | None = None,
                  default_seed: int | None = None) -> ScenarioConfig:
    """Load, override, and strictly validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"{path}: parse error{loc}: {exc}") from exc
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
        decomp = decompose_anomaly(cfg.anomaly_total, cfg.anthropogenic)
        if cfg.dose_response.kind is ResponseKind.LINEAR:
            attribution = linear_attribution(cfg.dose_response.beta.value, decomp)
        else:
            attribution = integral_attribution(cfg.dose_response, decomp)
        dist, exceedance = propagate(cfg.dose_response, decomp, cfg.seed, cfg.samples)
        summary = summarize(dist)
        p_value = tail_probability(dist, cfg.null_threshold)
        hist = tuple(histogram(dist, cfg.histogram_bins))
        quantile_rows = tuple((q, percentile(dist, q)) for q in cfg.quantiles)
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
    except ScenarioError:
        raise
    except ValueError as exc:  # e.g. DomainCoverageError: the config asks the impossible
        raise ScenarioError(f"scenario '{cfg.name}': {exc}") from exc
    except Exception as exc:  # e.g. MemoryError
        raise ScenarioRuntimeError(f"scenario '{cfg.name}': {exc}") from exc


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _bundle_dict(r: ReportBundle) -> dict:
    s = r.distribution_summary
    return {
        "scenario": r.scenario,
        "year": r.year,
        "attribution": {
            "natural_excess_percent": _sig12(r.attribution.natural_excess),
            "anthropogenic_excess_percent": _sig12(r.attribution.anthropogenic_excess),
            "total_relative_risk": _sig12(r.attribution.total_relative_risk),
        },
        "distribution_summary": {name: _sig12(v) for name, v in asdict(s).items()},
        "p_value": _sig12(r.p_value),
        "quantiles": [[_sig12(q), _sig12(v)] for q, v in r.quantiles],
        "histogram": [[_sig12(lo), _sig12(hi), count] for lo, hi, count in r.histogram],
        "provenance": {
            "seed": r.provenance["seed"],
            "samples": r.provenance["samples"],
            "config_digest": r.provenance["config_digest"],
            "tool_version": r.provenance["tool_version"],
            "anthropogenic_draws_above_total_fraction":
                _sig12(r.provenance["anthropogenic_draws_above_total_fraction"]),
        },
    }


def parse_report(blob: bytes | str) -> ReportBundle:
    """Inverse of the JSON emitter: rebuild a ReportBundle from its document."""
    doc = json.loads(blob)
    a = doc["attribution"]
    s = doc["distribution_summary"]
    return ReportBundle(
        scenario=doc["scenario"], year=doc["year"],
        attribution=RiskAttribution(a["natural_excess_percent"],
                                    a["anthropogenic_excess_percent"],
                                    a["total_relative_risk"]),
        distribution_summary=BoxWhiskerSummary(**s),
        p_value=doc["p_value"],
        quantiles=tuple((q, v) for q, v in doc["quantiles"]),
        histogram=tuple((lo, hi, count) for lo, hi, count in doc["histogram"]),
        provenance=dict(doc["provenance"]),
    )


def _emit_human(r: ReportBundle) -> str:
    s = r.distribution_summary
    a = r.attribution
    lines = [
        f"Scenario: {r.scenario} ({r.year})",
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
    s = r.distribution_summary
    rows = [("record_type", "name", "lower", "upper", "value")]
    for name, value in [("natural_excess_percent", r.attribution.natural_excess),
                        ("anthropogenic_excess_percent", r.attribution.anthropogenic_excess),
                        ("total_relative_risk", r.attribution.total_relative_risk)]:
        rows.append(("point", name, "", "", _g6(value)))
    for name, value in asdict(s).items():
        rows.append(("summary", name, "", "", _g6(value)))
    rows.append(("test", "p_value", "", "", _g6(r.p_value)))
    for q, v in r.quantiles:
        rows.append(("quantile", _g6(q), "", "", _g6(v)))
    for i, (lo, hi, count) in enumerate(r.histogram):
        rows.append(("histogram", str(i), _g6(lo), _g6(hi), str(count)))
    return "\n".join(",".join(row) for row in rows) + "\n"


def emit_report(r: ReportBundle, format: str = "human") -> bytes:
    """Serialize a report bundle as human text, CSV, or JSON."""
    if format == "human":
        text = _emit_human(r)
    elif format == "csv":
        text = _emit_csv(r)
    elif format == "json":
        text = json.dumps(_bundle_dict(r), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format: {format!r} (expected one of {FORMATS})")
    return text.encode("utf-8")
