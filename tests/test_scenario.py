import json
from pathlib import Path

import pytest

from attrisk import scenario
from attrisk.scenario import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ParseError,
    ScenarioError,
    ScenarioRuntimeError,
    UnknownKeyError,
    emit_report,
    load_scenario,
    parse_report,
    parse_scenario,
    run_scenario,
)
from attrisk.uq import CHUNK_SIZE, RandomStream

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


class TestLoading:
    def test_bundled_syria_values(self):
        cfg = load_scenario(SYRIA)
        assert cfg.name == "syria_2010"
        assert cfg.anomaly_total == 2.48
        assert (cfg.anthropogenic.value, cfg.anthropogenic.dispersion) == (1.08, 0.37)
        assert (cfg.dose_response.beta.value, cfg.dose_response.beta.dispersion) == (3.54, 1.2)
        assert cfg.seed == 20150302
        assert cfg.samples == 1_000_000

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

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\n  year: : :\n")
        with pytest.raises(ParseError) as exc:
            load_scenario(bad)
        assert "line" in str(exc.value)

    def test_negative_anomaly_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(minimal(anomaly_total=-1.0))
        assert "anomaly_total" in str(exc.value)

    def test_overrides_applied_before_validation(self, tmp_path):
        cfg = load_scenario(SYRIA, overrides={"mc.seed": 7, "mc.samples": 5000})
        assert (cfg.seed, cfg.samples) == (7, 5000)

    def test_default_seed_yields_to_file(self):
        assert load_scenario(SYRIA, default_seed=99).seed == 20150302

    def test_default_seed_applies_when_file_silent(self):
        assert parse_scenario(minimal(), default_seed=99).seed == 99

    def test_surface_scenario_parses(self):
        cfg = parse_scenario(minimal(
            dose_response={"kind": "surface",
                           "knots": [[0, 1.0], [1, 1.04], [3, 1.12]]}))
        assert cfg.dose_response.knots == ((0, 1.0), (1, 1.04), (3, 1.12))


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

    @pytest.mark.parametrize("dose_response, draws_per_sample", [
        ({"kind": "linear", "value": 3.54, "dispersion": 1.2}, 2),
        ({"kind": "surface", "knots": [[0, 1.0], [2, 1.07], [4, 1.2]]}, 1),
    ])
    def test_each_input_drawn_once(self, monkeypatch, dose_response, draws_per_sample):
        drawn = []
        original = RandomStream.standard_normal

        def counted(stream, n):
            drawn.append((stream.label, n))
            return original(stream, n)

        monkeypatch.setattr(RandomStream, "standard_normal", counted)
        n = 2 * CHUNK_SIZE + 3
        run_scenario(parse_scenario(minimal(dose_response=dose_response,
                                            mc={"samples": n})))
        labels = [label for label, _ in drawn]
        assert len(set(labels)) == len(labels)  # no stream is drawn twice
        assert sum(count for _, count in drawn) == draws_per_sample * n

    def test_errors_carry_scenario_name(self):
        cfg = parse_scenario(minimal(
            name="short_surface",
            dose_response={"kind": "surface", "knots": [[0, 1.0], [1, 1.04]]},
            mc={"samples": 100},
        ))
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg)
        assert "short_surface" in str(exc.value)

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

    def test_json_round_trip(self, small_bundle):
        blob = emit_report(small_bundle, "json")
        parsed = parse_report(blob)
        assert emit_report(parsed, "json") == blob
        assert parsed.scenario == small_bundle.scenario
        assert parsed.p_value == pytest.approx(small_bundle.p_value, rel=1e-11)
        assert parsed.attribution.natural_excess == \
            pytest.approx(small_bundle.attribution.natural_excess, rel=1e-11)
        assert parsed.distribution_summary.median == \
            pytest.approx(small_bundle.distribution_summary.median, rel=1e-11)
        assert [c for _, _, c in parsed.histogram] == [c for _, _, c in small_bundle.histogram]

    def test_unknown_format_rejected(self, small_bundle):
        with pytest.raises(ValueError):
            emit_report(small_bundle, "xml")
