import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
import yaml
import numpy as np
from hypothesis import example, given, settings, strategies as st

import attrisk
from attrisk import cli, engine, scenario, uq
from attrisk.scenario import (
    DEFAULT_HISTOGRAM_BINS,
    DEFAULT_NULL_THRESHOLD,
    DEFAULT_QUANTILES,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    YAML_LOADER,
    ParseError,
    ReportBundle,
    ScenarioError,
    ScenarioRuntimeError,
    UnknownKeyError,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from attrisk.engine import RiskAttribution
from attrisk.uq import CHUNK_SIZE, SUMMARY_LEVELS, BoxWhiskerSummary, UncertainScalar

SCENARIOS = Path(attrisk.__file__).parent / "scenarios"
SYRIA = SCENARIOS / "syria_2010.yaml"

MINIMAL = {
    "name": "toy",
    "year": 2010,
    "anomaly_total": 2.48,
    "anthropogenic": {"value": 1.08, "dispersion": 0.37},
    "dose_response": {"kind": "linear", "value": 3.54, "dispersion": 1.2},
}


def minimal(**changes):
    data = json.loads(json.dumps(MINIMAL))
    data.update(changes)
    return data


def without(dotted):
    """MINIMAL with the field at the dotted path removed."""
    data = minimal()
    *parents, last = dotted.split(".")
    node = data
    for part in parents:
        node = node[part]
    del node[last]
    return data


#: Every parse_scenario refusal of a document: (document, whole message, field).
REFUSALS = {
    "name-absent": (without("name"), "name: required non-empty string", "name"),
    "name-empty": (minimal(name=""), "name: required non-empty string", "name"),
    "year-absent": (without("year"), "year: required integer", "year"),
    **{f"{path}-absent": (without(path), f"missing required field: {path}", path)
       for path in ["anomaly_total", "anthropogenic", "anthropogenic.value",
                    "dose_response", "dose_response.value"]},
    "anomaly_total-negative": (minimal(anomaly_total=-1.0),
                               "anomaly_total: must be >= 0 (positive = adverse)",
                               "anomaly_total"),
    "anthropogenic-null": (minimal(anthropogenic=None),
                           "anthropogenic: expected a mapping, got NoneType", "anthropogenic"),
    "document-list": ([1, 2], "scenario: expected a mapping, got list", "scenario"),
    "mc-int": (minimal(mc=5), "mc: expected a mapping, got int", "mc"),
    "report-null": (minimal(report=None), "report: expected a mapping, got NoneType", "report"),
    "negative-dispersion": (minimal(anthropogenic={"value": 1.08, "dispersion": -1}),
                            "anthropogenic.dispersion: must be >= 0",
                            "anthropogenic.dispersion"),
    "knots-int": (minimal(dose_response={"kind": "surface", "knots": 5}),
                  "dose_response.knots: expected a list of [D, relative_risk] pairs",
                  "dose_response.knots"),
    "kind-cubic": (minimal(dose_response={"kind": "cubic"}),
                   "dose_response.kind: must be 'linear' or 'surface', got 'cubic'",
                   "dose_response.kind"),
    "null-threshold-string": (minimal(report={"null_threshold": "x"}),
                              "report.null_threshold: expected a number, got 'x'",
                              "report.null_threshold"),
}


class TestLoading:
    @pytest.mark.parametrize("data, message, field", REFUSALS.values(), ids=REFUSALS)
    def test_refusal_names_field(self, data, message, field):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(data)
        assert (str(exc.value), exc.value.field) == (message, field)

    def test_bundled_syria_values(self):
        cfg = load_scenario(SYRIA)
        assert cfg.name == "syria_2010"
        assert cfg.anomaly_total == 2.48
        assert (cfg.anthropogenic.value, cfg.anthropogenic.dispersion) == (1.08, 0.37)
        assert (cfg.dose_response.beta.value, cfg.dose_response.beta.dispersion) == (3.54, 1.2)
        assert cfg.seed == 20150302
        assert cfg.samples == 1_000_000

    def test_device_is_not_a_scenario_file(self):
        # Read as a document, /dev/null would be an empty one and /dev/zero endless.
        with pytest.raises(ParseError, match=f"^file not found: {re.escape(os.devnull)}$"):
            load_scenario(os.devnull)

    def test_defaults_fill_when_blocks_omitted(self):
        cfg = parse_scenario(minimal())
        assert cfg.seed == DEFAULT_SEED
        assert cfg.samples == DEFAULT_SAMPLES
        assert cfg.histogram_bins == 80
        assert cfg.quantiles == (0.005, 0.05, 0.25, 0.5, 0.75, 0.95, 0.995)
        assert cfg.null_threshold == 0.0

    def test_quantile_out_of_range_names_field(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(minimal(report={"quantiles": [0.5, 1.5]}))
        assert "report.quantiles" in str(exc.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKeyError) as exc:
            parse_scenario(minimal(anomaly_totl=2.48))
        assert "anomaly_totl" in str(exc.value)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(UnknownKeyError) as exc:
            parse_scenario(minimal(mc={"sede": 7}))
        assert "mc.sede" in str(exc.value)

    def test_directory_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_scenario(tmp_path)
        assert str(tmp_path) in str(exc.value)

    def test_non_utf8_is_parse_error(self, tmp_path):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes("name: S\xe3o Paulo\n".encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            load_scenario(bad)
        assert str(bad) in str(exc.value)

    def test_overrides_applied_before_validation(self, tmp_path):
        cfg = load_scenario(SYRIA, overrides={"mc.seed": 7, "mc.samples": 5000})
        assert (cfg.seed, cfg.samples) == (7, 5000)

    def test_default_seed_yields_to_file(self):
        assert load_scenario(SYRIA, default_seed=99).seed == 20150302

    def test_default_seed_applies_when_file_silent(self):
        assert parse_scenario(minimal(), default_seed=99).seed == 99

    @pytest.mark.parametrize("bad", [None, True, "3", [3]], ids=["null", "bool", "quoted", "list"])
    @pytest.mark.parametrize("at", [0, 1], ids=["D", "rr"])
    def test_knot_that_is_not_a_number_names_field(self, bad, at):
        knot = [3, 1.2]
        knot[at] = bad
        with pytest.raises(ScenarioError, match="expected a number") as exc:
            parse_scenario(minimal(dose_response={"kind": "surface", "knots": [[0, 1], knot]}))
        assert exc.value.field == "dose_response.knots"
        assert str(exc.value).startswith("dose_response.knots: ")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("at", [0, 1], ids=["D", "rr"])
    def test_knot_that_is_not_finite_names_field(self, bad, at):
        knot = [3, 1.2]
        knot[at] = bad
        with pytest.raises(ScenarioError, match="must be finite") as exc:
            parse_scenario(minimal(dose_response={"kind": "surface", "knots": [[0, 1], knot]}))
        assert exc.value.field == "dose_response.knots"

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), 2 ** 1024 - 2 ** 969],
                             ids=["1e400", "-1e400", "rounds-to-2^1024"])
    def test_integer_beyond_float_range_is_not_finite(self, big):
        with pytest.raises(ScenarioError, match="must be finite") as exc:
            parse_scenario(minimal(anomaly_total=big))
        assert exc.value.field == "anomaly_total"

    def test_surface_scenario_parses(self):
        cfg = parse_scenario(minimal(
            dose_response={"kind": "surface",
                           "knots": [[0, 1.0], [1, 1.04], [3, 1.12]]}))
        assert cfg.dose_response.knots == ((0, 1.0), (1, 1.04), (3, 1.12))


# A scenario with a merge key, and one in flow style with a non-BMP name.
MERGE_YAML = """\
name: merged
year: 2010
anomaly_total: 2.48
anthropogenic: &normal {value: 1.08, dispersion: 0.37}
dose_response: {<<: *normal, kind: linear, value: 3.54}
"""
NON_BMP_YAML = ("{name: \"\U0001F30D syria\", year: 2010, anomaly_total: 2.48,"
                " anthropogenic: {value: 1.08, dispersion: 0.37},"
                " dose_response: {kind: linear, value: 3.54, dispersion: 1.2}}\n")


def _golden_surface_yaml():
    from test_golden import SURFACE_YAML
    return SURFACE_YAML.encode()


PARITY_DOCS = {
    "syria_2010": SYRIA.read_bytes,
    "temperature_illustrative":
        (SCENARIOS / "syria_2010_temperature_illustrative.yaml").read_bytes,
    "golden_surface": _golden_surface_yaml,
    "bom": lambda: b"\xef\xbb\xbf" + SYRIA.read_bytes(),
    "crlf": lambda: SYRIA.read_bytes().replace(b"\n", b"\r\n"),
    "non_bmp_name": lambda: NON_BMP_YAML.encode(),
    "merge_key": lambda: MERGE_YAML.encode(),
}

# Malformed documents and where both loaders place the error. A control
# character is a reader error, which carries no mark: it is placed at the
# first occurrence of the code point the reader refused, anywhere in the
# text, comments included.
MALFORMED = {
    "name: x\n  year: : :\n": "line 2, column 7",
    "a: [1\n": "line 2, column 1",
    "a: 1\n\tb: 2\n": "line 2, column 1",
    "name: x\x07\n": "line 1, column 8",
    "a: \u00e9\U0001F30D\r\nname: x\x07\n": "line 2, column 8",
    "# caf\u00e9 \x07\nname: x\x07\n": "line 1, column 8",
}


def _location(message):
    at = message.find(" at line ")
    return message[at + 4:message.index(":", at)] if at >= 0 else None


#: The installed loader and its pure-Python twin from the same factory.
LOADERS = [scenario.YAML_LOADER, scenario._core_schema_loader(yaml.SafeLoader)]


@pytest.fixture(params=LOADERS, ids=["YAML_LOADER", "SafeLoader"])
def loader(request, monkeypatch):
    """Parse scenario files and --set values with each loader in turn."""
    monkeypatch.setattr(scenario, "YAML_LOADER", request.param)
    return request.param


# Numbers as the YAML 1.2 core schema reads them (decimal integers only), and
# the other forms YAML 1.1 would read as numbers, which are now strings.
NUMBER_FORMS = {
    "010": 10,
    "08": 8,
    "1:30": "expected a number, got '1:30'",
    "1_000": "expected a number, got '1_000'",
    "0x10": "expected a number, got '0x10'",
    "1e-3": 0.001,
    "1.0e3": 1000.0,
    "1E5": 100000.0,
    ".inf": "must be finite, got inf",
}


class TestYamlLoader:
    def test_libyaml_loader_is_used_where_installed(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert scenario.YAML_LOADER.__bases__ == (base,)

    @pytest.mark.parametrize("form", NUMBER_FORMS)
    def test_numbers_read_as_yaml_1_2(self, loader, form, tmp_path):
        expected = NUMBER_FORMS[form]
        path = tmp_path / "doc.yaml"
        path.write_text(yaml.safe_dump(minimal(), sort_keys=False)
                        .replace("anomaly_total: 2.48", f"anomaly_total: {form}"),
                        encoding="utf-8")
        overrides = cli._parse_set([f"anomaly_total={form}"])
        for run in (lambda: load_scenario(path), lambda: load_scenario(SYRIA, overrides)):
            if isinstance(expected, str):
                with pytest.raises(ScenarioError, match=f"anomaly_total: {re.escape(expected)}"):
                    run()
            else:
                assert run().anomaly_total == expected

    def test_seed_010_is_ten_from_every_source(self, loader, monkeypatch, capsys):
        args = ["report", str(SYRIA), "--samples", "100"]
        assert cli.main([*args, "--set", "mc.seed=010"]) == 0
        assert cli.main([*args, "--seed", "010"]) == 0
        monkeypatch.setenv(cli.ENV_SEED, "010")
        assert cli.main([*args, "--set", "mc={samples: 100}"]) == 0
        reports = capsys.readouterr().out.split("\n}\n")[:-1]
        assert [json.loads(r + "}")["provenance"]["seed"] for r in reports] == [10, 10, 10]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.floats(allow_nan=False)))
    def test_dumped_numbers_load_back(self, number):
        # Scenario files written by yaml.safe_dump (1.1 spellings such as
        # 1.0e-05 and .inf) read back as the same numbers.
        for loader in LOADERS:
            assert yaml.load(yaml.safe_dump({"x": number}), Loader=loader) == {"x": number}

    @pytest.mark.parametrize("doc", PARITY_DOCS.values(), ids=PARITY_DOCS)
    def test_same_data(self, loader, doc, tmp_path):
        raw = doc()
        path = tmp_path / "doc.yaml"
        path.write_bytes(raw)
        # PyYAML's pure loader decodes the bytes itself: BOM, CRLF and all.
        data = yaml.load(raw, Loader=yaml.SafeLoader)
        assert yaml.load(raw.decode("utf-8"), Loader=loader) == data
        assert load_scenario(path).canonical_dict() == parse_scenario(data).canonical_dict()

    def test_merge_key_and_non_bmp_name(self, loader, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_text(MERGE_YAML, encoding="utf-8")
        assert load_scenario(path).dose_response.beta == UncertainScalar(3.54, 0.37)
        path.write_text(NON_BMP_YAML, encoding="utf-8")
        assert load_scenario(path).name == "\U0001F30D syria"

    @pytest.mark.parametrize("text", MALFORMED,
                             ids=["mapping", "flow", "tab-indent", "control", "control-after-utf8",
                                  "control-in-comment"])
    def test_same_error_location(self, loader, text, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_scenario(path)
        assert _location(str(exc.value)) == MALFORMED[text]
        assert exc.value.field == ""

    def test_impossible_date_is_usage_error(self, loader, tmp_path, capsys):
        # The safe constructor raises a plain ValueError for a date-shaped scalar
        # that is no date.
        path = tmp_path / "date.yaml"
        path.write_text(yaml.safe_dump(minimal(), sort_keys=False)
                        .replace("year: 2010", "year: 2010-13-45"), encoding="utf-8")
        with pytest.raises(ParseError, match="parse error: month must be in 1..12"):
            load_scenario(path)
        assert cli.main(["report", str(path)]) == 2
        assert cli.main(["report", str(SYRIA), "--set", "name=2010-13-45"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: --set name: '2010-13-45': month must be in 1..12"

    def test_python_tag_is_rejected_and_never_run(self, loader, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(os, "system", ran.append)
        tag = '!!python/object/apply:os.system ["true"]'
        path = tmp_path / "tag.yaml"
        path.write_text(f"name: {tag}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="constructor"):
            load_scenario(path)
        assert cli.main(["report", str(path)]) == 2
        assert cli.main(["report", str(SYRIA), "--set", f"name={tag}"]) == 2
        assert ran == []

    def test_tab_after_colon_differs_only_by_loader(self, loader, tmp_path):
        # The YAML spec allows a tab as separation space after ':'. PyYAML's
        # pure scanner rejects it; libyaml reads the value.
        path = tmp_path / "tab.yaml"
        path.write_text(yaml.safe_dump(minimal(), sort_keys=False)
                        .replace("name: toy", "name:\ttoy"), encoding="utf-8")
        if issubclass(loader, yaml.reader.Reader):
            with pytest.raises(ParseError) as exc:
                load_scenario(path)
            assert _location(str(exc.value)) == "line 1, column 6"
        else:
            assert load_scenario(path).name == "toy"


class TestMemoryBound:
    """Sample and bin counts whose arrays cannot fit in physical memory are
    rejected while parsing, before any array is allocated."""

    FIELDS = [("mc", "samples", "_SAMPLE_BYTES"),
              ("report", "histogram_bins", "_BIN_BYTES")]

    @pytest.mark.parametrize("block, key, _", FIELDS)
    def test_count_beyond_physical_memory_names_field(self, block, key, _):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(minimal(**{block: {key: 10 ** 15}}))
        assert exc.value.field == f"{block}.{key}"
        assert f"{block}.{key}" in str(exc.value)

    @pytest.mark.parametrize("block, key, item_bytes", FIELDS)
    def test_bound_is_physical_memory(self, monkeypatch, block, key, item_bytes):
        monkeypatch.setattr(scenario, "_physical_memory",
                            lambda: 1000 * getattr(scenario, item_bytes))
        small = {"mc": {"samples": 2}, "report": {"histogram_bins": 1}}

        def parse(count):
            return parse_scenario(minimal(**{**small, block: {key: count}}))

        parse(1000)  # exactly fills physical memory
        with pytest.raises(ScenarioError) as exc:
            parse(1001)
        assert exc.value.field == f"{block}.{key}"

    # As on Windows: no os.sysconf, and ctypes.windll as given (a kernel32 whose
    # GlobalMemoryStatusEx reports physical_memory bytes, or none at all).
    WINDOWS_CHILD = textwrap.dedent("""\
        import ctypes, os, sys, types
        del os.sysconf
        ctypes.__dict__.pop("windll", None)
        physical_memory = {physical_memory}

        def GlobalMemoryStatusEx(ref):
            status = ref._obj  # the MEMORYSTATUSEX that byref points to
            assert status.length == ctypes.sizeof(status) == 64
            status.total_phys = physical_memory
            return 1

        if physical_memory is not None:
            ctypes.windll = types.SimpleNamespace(
                kernel32=types.SimpleNamespace(GlobalMemoryStatusEx=GlobalMemoryStatusEx))
        from attrisk import cli
        sys.exit(cli.main(sys.argv[1:]))
        """)

    def run_without_sysconf(self, physical_memory, *args):
        src = str(Path(scenario.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = self.WINDOWS_CHILD.format(physical_memory=physical_memory)
        return subprocess.run([sys.executable, "-c", code, "attribute", str(SYRIA), *args],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_windows_reads_global_memory_status(self):
        size = 10 ** 6 * scenario._SAMPLE_BYTES
        proc = self.run_without_sysconf(size, "--samples", "100")
        assert proc.returncode == 0, proc.stderr
        proc = self.run_without_sysconf(size, "--set", f"mc.samples={10 ** 6 + 1}")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: mc.samples: ")
        assert "physical memory" in proc.stderr

    def test_no_memory_source_leaves_the_count_to_the_allocation(self):
        proc = self.run_without_sysconf(None, "--samples", "100")
        assert proc.returncode == 0, proc.stderr
        # 8e15 bytes is beyond the user address space of x86-64 and arm64 (at
        # most 2^48 bytes), so the allocation fails without mapping anything.
        proc = self.run_without_sysconf(None, "--set", f"mc.samples={10 ** 15}")
        assert proc.returncode == 1, proc.stderr
        assert "Unable to allocate" in proc.stderr

    @pytest.mark.parametrize("changes", [
        {},
        {"dose_response": {"kind": "surface",
                           "knots": [[0, 1.0], [1, 1.05], [2, 1.15], [3, 1.3], [5, 1.6]]}},
        {"dose_response": {"kind": "linear", "value": 3.54, "dispersion": 0}},
    ], ids=["linear", "surface", "point-beta"])
    def test_run_allocates_one_sample_array(self, changes):
        # A run holds the one n-array of float64 that _SAMPLE_BYTES counts,
        # and beyond it only chunk-sized scratch per pool thread.
        n = 2_000_000
        cfg = parse_scenario(minimal(**changes, mc={"samples": n}))
        workers = uq._workers
        # Start the pool before measuring.
        run_scenario(parse_scenario(minimal(**changes, mc={"samples": 2 * CHUNK_SIZE})))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 8 * CHUNK_SIZE * (workers + 1) + 2 ** 20
        assert scenario._SAMPLE_BYTES == 8

    @pytest.mark.parametrize("format", scenario.FORMATS)
    def test_run_and_emit_stay_within_bin_bytes(self, format):
        # Each bin costs its tuple in the bundle and its text in the report,
        # far more than its edge and count as float64; few samples keep the
        # sample array out of the peak.
        bins = 10_000
        cfg = parse_scenario(minimal(mc={"samples": 1000}, report={"histogram_bins": bins}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emit_report(run_scenario(cfg), format)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / bins <= scenario._BIN_BYTES


class TestDigest:
    def test_identical_configs_identical_digests(self):
        assert load_scenario(SYRIA).digest() == load_scenario(SYRIA).digest()

    def test_changed_config_changes_digest(self):
        base = load_scenario(SYRIA)
        other = load_scenario(SYRIA, overrides={"mc.seed": 7})
        assert base.digest() != other.digest()

    def test_canonicalization_round_trip(self):
        cfg = load_scenario(SYRIA)
        assert parse_scenario(cfg.canonical_dict()) == cfg


@pytest.fixture(scope="module")
def syria_bundle():
    return run_scenario(load_scenario(SYRIA))


@pytest.fixture(scope="module")
def small_bundle():
    return run_scenario(load_scenario(SYRIA, overrides={"mc.samples": 50000}))


class TestRunScenario:
    def test_syria_headline_numbers(self, syria_bundle):
        s = syria_bundle.distribution_summary
        assert s.median == pytest.approx(3.6, abs=0.15)
        assert s.p05 == pytest.approx(1.1, abs=0.3)
        assert s.p95 == pytest.approx(7.3, abs=0.3)
        assert syria_bundle.p_value < 0.01

    def test_point_uncertainties_give_degenerate_distribution(self):
        cfg = parse_scenario(minimal(
            anthropogenic={"value": 1.08, "dispersion": 0},
            dose_response={"kind": "linear", "value": 3.54, "dispersion": 0},
            mc={"samples": 1000},
        ))
        bundle = run_scenario(cfg)
        s = bundle.distribution_summary
        assert s.median == s.mean == pytest.approx(3.8232)
        assert s.p005 == s.p995

    def test_deterministic_bundles(self):
        cfg = parse_scenario(minimal(mc={"samples": 20000}))
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert emit_report(a, "json") == emit_report(b, "json")

    def test_surface_scenario_runs(self):
        cfg = parse_scenario(minimal(
            dose_response={"kind": "surface",
                           "knots": [[0, 1.0], [1, 1.0354], [2, 1.0708],
                                     [3, 1.1062], [6, 1.2124]]},
            mc={"samples": 20000},
        ))
        bundle = run_scenario(cfg)
        assert bundle.attribution.anthropogenic_excess == pytest.approx(3.8232, rel=1e-6)

    @pytest.mark.parametrize("dose_response, streams", [
        ({"kind": "linear", "value": 3.54, "dispersion": 1.2}, 2),
        ({"kind": "surface", "knots": [[0, 1.0], [2, 1.07], [4, 1.2]]}, 1),
    ])
    def test_each_input_drawn_once(self, monkeypatch, spawn_keys, dose_response, streams):
        built = []
        build = engine.Pchip
        monkeypatch.setattr(engine, "Pchip", lambda x, y: built.append(x) or build(x, y))
        n = 2 * CHUNK_SIZE + 3
        run_scenario(parse_scenario(minimal(dose_response=dose_response,
                                            mc={"samples": n})))
        # Each of the three chunks of D', and of beta where it is drawn, is
        # keyed once, and nothing else is.
        drawn = [engine.BETA_STREAM, engine.DPRIME_STREAM][-streams:]
        assert sorted(spawn_keys) == [(label, i) for label in drawn for i in range(3)]
        # The point estimate and the propagation share one interpolant.
        assert len(built) == (dose_response["kind"] == "surface")

    def test_errors_carry_scenario_name(self):
        cfg = parse_scenario(minimal(
            name="short_surface",
            dose_response={"kind": "surface", "knots": [[0, 1.0], [1, 1.04]]},
            mc={"samples": 100},
        ))
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg)
        assert "short_surface" in str(exc.value)

    @pytest.mark.parametrize("edges", [(0.0, math.inf), (math.nan, 1.0)], ids=["upper", "lower"])
    def test_non_finite_histogram_edge_is_config_error(self, monkeypatch, edges):
        # Samples spanning (-1e308, 1e308) can have finite statistics but not
        # a finite bin width; a stand-in histogram gives such edges.
        bins = [(0.0, 0.5, 1), (0.5, 1.0, 1), (*edges, 98)]
        monkeypatch.setattr(scenario, "histogram", lambda dist, count: bins)
        with pytest.raises(ScenarioError, match="histogram edge is (inf|nan), not a finite"):
            run_scenario(parse_scenario(minimal(mc={"samples": 100})))

    def test_runtime_failures_are_not_config_errors(self, monkeypatch):
        def disagree(response, decomp):
            raise ArithmeticError("paths disagree")

        monkeypatch.setattr(scenario, "integral_attribution", disagree)
        cfg = parse_scenario(minimal(
            name="odd_surface",
            dose_response={"kind": "surface", "knots": [[0, 1.0], [2, 1.07], [4, 1.2]]},
            mc={"samples": 100},
        ))
        with pytest.raises(ScenarioRuntimeError) as exc:
            run_scenario(cfg)
        assert isinstance(exc.value.__cause__, ArithmeticError)
        assert "odd_surface" in str(exc.value) and "paths disagree" in str(exc.value)

    def test_provenance_fields(self, syria_bundle):
        prov = syria_bundle.provenance
        assert prov["seed"] == 20150302
        assert prov["samples"] == 1_000_000
        assert len(prov["config_digest"]) == 64
        assert prov["tool_version"]
        assert prov["anthropogenic_draws_above_total_fraction"] < 0.01


class TestEmission:
    def test_human_text_contains_point_estimates(self, small_bundle):
        text = emit_report(small_bundle, "human").decode()
        assert "natural component: 4.9" in text
        assert "anthropogenic component: 3.8" in text
        assert "p =" in text

    def test_csv_structure(self, small_bundle):
        lines = emit_report(small_bundle, "csv").decode().splitlines()
        assert lines[0] == "record_type,name,lower,upper,value"
        types = {line.split(",")[0] for line in lines[1:]}
        assert types == {"point", "summary", "test", "quantile", "histogram"}
        hist_counts = [int(line.split(",")[4]) for line in lines if line.startswith("histogram")]
        assert sum(hist_counts) == 50000

    def test_csv_degenerate_quantiles_equal(self):
        cfg = parse_scenario(minimal(
            anthropogenic={"value": 1.08, "dispersion": 0},
            dose_response={"kind": "linear", "value": 3.54, "dispersion": 0},
            mc={"samples": 100},
        ))
        lines = emit_report(run_scenario(cfg), "csv").decode().splitlines()
        values = {line.split(",")[4] for line in lines if line.startswith("quantile")}
        assert len(values) == 1

    def test_unknown_format_rejected(self, small_bundle):
        message = "unknown report format: 'xml' (expected one of ('human', 'csv', 'json'))"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_report(small_bundle, "xml")

    def test_report_lists_agree(self, small_bundle):
        doc = json.loads(emit_report(small_bundle, "json"))
        rows = [line.split(",") for line in emit_report(small_bundle, "csv").decode().splitlines()]
        names = {kind: [name for record, name, *_ in rows if record == kind]
                 for kind in ("point", "summary")}
        assert list(doc["distribution_summary"]) == names["summary"] == [*SUMMARY_LEVELS, "mean"]
        assert list(doc["attribution"]) == names["point"]
        assert DEFAULT_QUANTILES == tuple(sorted(SUMMARY_LEVELS.values()))
        # The defaults the README's scenario-file block shows are the code's.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("\n## Scenario files\n", 1)[1]
        shown = yaml.load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1),
                          Loader=YAML_LOADER)
        assert shown["mc"] == {"seed": DEFAULT_SEED, "samples": DEFAULT_SAMPLES}
        assert shown["report"] == {"quantiles": list(DEFAULT_QUANTILES),
                                   "histogram_bins": DEFAULT_HISTOGRAM_BINS,
                                   "null_threshold": DEFAULT_NULL_THRESHOLD}


def _sig12(x):
    return float(f"{x:.12g}")


def report_dict(r):
    """The JSON report's content: the bundle with each float rounded to 12
    significant digits (in provenance, each top-level float)."""
    s = r.distribution_summary
    return {
        "scenario": r.scenario,
        "year": r.year,
        "attribution": {
            "natural_excess_percent": _sig12(r.attribution.natural_excess),
            "anthropogenic_excess_percent": _sig12(r.attribution.anthropogenic_excess),
            "total_relative_risk": _sig12(r.attribution.total_relative_risk),
        },
        "distribution_summary": {name: _sig12(v) for name, v in dataclasses.asdict(s).items()},
        "p_value": _sig12(r.p_value),
        "quantiles": [[_sig12(q), _sig12(v)] for q, v in r.quantiles],
        "histogram": [[_sig12(lo), _sig12(hi), count] for lo, hi, count in r.histogram],
        "provenance": {key: _sig12(v) if isinstance(v, float) else v
                       for key, v in r.provenance.items()},
    }


def json_reference(r):
    """The JSON report by definition, or the error json raises."""
    try:
        return (json.dumps(report_dict(r), indent=2) + "\n").encode()
    except TypeError as exc:
        return type(exc)


def emitted_json(r):
    try:
        return emit_report(r, "json")
    except TypeError as exc:
        return type(exc)


# The smallest subnormal and normal floats, a negative zero, the largest float,
# and the points where the text turns to exponent form: %g's at 1e12 (a value
# that rounds up to it), repr's at 1e16, and both below 1e-4 (a value that
# rounds up to it).
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, -0.0, 1.7976931348623157e308, 999999999999.6,
               1e16, 9999999999999998.0, 1e-5, 1e-4, 9.9999999999995e-05]
numbers = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
counts = st.one_of(st.sampled_from([0, 2 ** 53 + 1, 2 ** 64 + 7]), st.integers(0, 2 ** 70))
# Quotes, backslashes, control characters, U+2028/9, non-ASCII and astral text.
names = st.text(st.one_of(st.sampled_from('"\\\x00\x07\n\x1f\x7f\u2028\u2029\u00e9\U0001f30d'),
                          st.characters()), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=10)


@st.composite
def bundles(draw, number=numbers, count=counts):
    """A report bundle with any names, any provenance, and tables of up to 1000
    rows built from a few drawn numbers (drawing 1000 rows each is slow)."""
    values = draw(st.lists(number, min_size=1, max_size=8))
    p005, p05, q25, median, q75, p95, p995 = sorted(draw(st.lists(numbers, min_size=7,
                                                                  max_size=7)))
    rows = draw(st.one_of(st.sampled_from([0, 1, 1000]), st.integers(0, 1000)))
    row_counts = draw(st.lists(count, min_size=1, max_size=4))
    histogram = tuple((values[i % len(values)], values[(i + 1) % len(values)],
                       row_counts[i % len(row_counts)]) for i in range(rows))
    quantiles = tuple(draw(st.lists(st.tuples(numbers, number), max_size=9)))
    return ReportBundle(
        scenario=draw(names), year=draw(st.integers(-10 ** 20, 10 ** 20)),
        attribution=RiskAttribution(*draw(st.tuples(numbers, numbers, numbers))),
        distribution_summary=BoxWhiskerSummary(median, q25, q75, p05, p95, p005, p995,
                                               mean=draw(numbers)),
        p_value=draw(numbers), quantiles=quantiles, histogram=histogram,
        provenance=draw(st.dictionaries(names, json_values, max_size=6)))


ONE_ROW = ReportBundle(
    scenario='a "b" \\ \u2028 \x01 \u00e9', year=2010,
    attribution=RiskAttribution(1e-5, -0.0, 1e16),
    distribution_summary=BoxWhiskerSummary(*[5e-324] * 7, mean=1.7976931348623157e308),
    p_value=0.0, quantiles=((0.5, 5e-324),), histogram=((-0.0, 1e16, 2 ** 53 + 1),),
    provenance={"seed": 1, "nested": {"list": [1, [2.5, {}], []], "dict": {"k": None}},
                "fraction": 0.1 + 0.2})


def json_float_reference(x):
    """A number's JSON text by definition: json's text of x rounded to 12 digits."""
    text = repr(float(f"{x:.12g}"))
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


# Each side of %g's and repr's switches to exponent form, and of the subnormals.
JSON_FLOAT_EDGES = [1e-4, 9.99999999999e-05, 9.9999999999995e-05, 999999999999.4,
                    999999999999.6, 123456789012.0, 1e12, 9999999999999998.0, 1e16,
                    2.2250738585072014e-308, 2.225073858507201e-308, 5e-324,
                    1.7976931348623157e308, -1.7976931348623157e308]


class TestJsonFloat:
    """_json_float writes the reference text whether or not it takes the fast path."""

    @given(st.floats() | st.floats().map(np.float64) | st.integers(-10 ** 300, 10 ** 300)
           | st.booleans())
    @example(math.nan)
    @example(np.float64(-0.0))
    @example(10 ** 12)
    @example(True)
    def test_any_number(self, x):
        assert scenario._json_float(x) == json_float_reference(x)

    @pytest.mark.parametrize("x", JSON_FLOAT_EDGES)
    def test_edges(self, x):
        assert scenario._json_float(x) == json_float_reference(x)


class TestJsonWriter:
    """emit_report's JSON is json.dumps(indent=2) of the bundle dict, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(bundles())
    @example(ONE_ROW)
    # Edges equal in value but not in text, and not the same object.
    @example(dataclasses.replace(ONE_ROW, histogram=((-1.0, 0.0, 1), (-0.0, 1.0, 2))))
    # A lower edge that is not the previous bin's upper edge.
    @example(dataclasses.replace(ONE_ROW, histogram=((0.0, 1.0, 1), (2.0, 3.0, 2))))
    def test_bytes_match_json_dumps(self, r):
        assert emit_report(r, "json") == json_reference(r)

    # Outside what run_scenario makes: non-finite numbers (json writes NaN and
    # Infinity), and counts that are no int (json writes true, or refuses).
    @settings(max_examples=50, deadline=None)
    @given(bundles(number=st.one_of(numbers, st.sampled_from([math.inf, -math.inf, math.nan])),
                   count=st.one_of(counts, st.sampled_from([True, False, 2.0, np.int64(3)]))))
    @example(dataclasses.replace(ONE_ROW, histogram=((1.0, 2.0, True),)))
    @example(dataclasses.replace(ONE_ROW, histogram=((1.0, 2.0, np.int64(3)),)))
    @example(dataclasses.replace(ONE_ROW, histogram=((-math.inf, 2.0, 1),)))
    @example(dataclasses.replace(ONE_ROW, quantiles=((0.5, math.nan),)))
    def test_other_tables_go_through_json(self, r):
        assert emitted_json(r) == json_reference(r)

    def test_run_report_is_canonical(self, small_bundle):
        text = emit_report(small_bundle, "json").decode()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
