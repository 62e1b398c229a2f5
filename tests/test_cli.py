import json
from pathlib import Path

import pytest

from attrisk.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SYRIA = str(SCENARIOS / "syria_2010.yaml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAttribute:
    def test_human_report(self, capsys):
        code, out, err = run(capsys, "attribute", SYRIA)
        assert code == 0
        assert "4.9" in out and "3.8" in out
        assert err == ""

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run(capsys, "attribute", "no-such-scenario.yaml")
        assert code == 2
        assert "file not found" in err

    def test_bad_override_path_is_usage_error(self, capsys):
        code, _, err = run(capsys, "attribute", SYRIA, "--set", "mc.sede=7")
        assert code == 2
        assert "mc.sede" in err

    def test_malformed_set_flag(self, capsys):
        code, _, err = run(capsys, "attribute", SYRIA, "--set", "noequals")
        assert code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", SYRIA, "--samples", "2000",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["scenario"] == "syria_2010"
        assert doc["provenance"]["samples"] == 2000

    def test_seed_change_same_statistics_different_histogram(self, capsys):
        _, base, _ = run(capsys, "report", SYRIA)
        _, reseeded, _ = run(capsys, "report", SYRIA, "--set", "mc.seed=7")
        a, b = json.loads(base), json.loads(reseeded)
        assert a["histogram"] != b["histogram"]
        assert abs(a["distribution_summary"]["median"]
                   - b["distribution_summary"]["median"]) < 0.02
        assert abs(a["distribution_summary"]["p95"]
                   - b["distribution_summary"]["p95"]) < 0.05

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestSeedPrecedence:
    @pytest.fixture
    def no_mc_scenario(self, tmp_path):
        path = tmp_path / "bare.yaml"
        path.write_text(
            "name: bare\nyear: 2010\nanomaly_total: 2.48\n"
            "anthropogenic: {value: 1.08, dispersion: 0.37}\n"
            "dose_response: {kind: linear, value: 3.54, dispersion: 1.2}\n")
        return str(path)

    def seed_of(self, capsys, *argv):
        code, out, _ = run(capsys, "report", *argv, "--samples", "100")
        assert code == 0
        return json.loads(out)["provenance"]["seed"]

    def test_env_seed_used_when_file_silent(self, capsys, monkeypatch, no_mc_scenario):
        monkeypatch.setenv("ATTRISK_SEED", "1234")
        assert self.seed_of(capsys, no_mc_scenario) == 1234

    def test_file_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRISK_SEED", "1234")
        assert self.seed_of(capsys, SYRIA) == 20150302

    def test_set_beats_file(self, capsys):
        assert self.seed_of(capsys, SYRIA, "--set", "mc.seed=5") == 5

    def test_seed_flag_beats_set(self, capsys):
        assert self.seed_of(capsys, SYRIA, "--set", "mc.seed=5", "--seed", "6") == 6


class TestPropagate:
    def test_rejects_zero_effect_null(self, capsys):
        code, out, _ = run(capsys, "propagate", "--beta", "3.54", "--beta-sd", "1.2",
                           "--dprime", "1.08", "--dprime-sd", "0.37")
        assert code == 0
        p = float(out.splitlines()[-1].split(":")[-1])
        assert p < 0.01

    def test_point_masses_collapse(self, capsys):
        code, out, _ = run(capsys, "propagate", "--beta", "3.54",
                           "--dprime", "1.08", "--samples", "100")
        assert code == 0
        assert out.count("3.8232") >= 4  # mean, median, and interval endpoints

    def test_mean_matches_analytic_oracle(self, capsys):
        _, out, _ = run(capsys, "propagate", "--beta", "3.54", "--beta-sd", "1.2",
                        "--dprime", "1.08", "--dprime-sd", "0.37")
        mean = float(next(line for line in out.splitlines()
                          if line.startswith("mean")).split(":")[-1])
        assert abs(mean - 3.8232) < 0.01

    def test_missing_flag_is_usage_error(self, capsys):
        assert run(capsys, "propagate", "--beta", "3.54")[0] == 2

    def test_env_seed_zero_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRISK_SEED", "0")
        code, out, _ = run(capsys, "propagate", "--beta", "3.54", "--beta-sd", "1.2",
                           "--dprime", "1.08", "--samples", "100")
        assert code == 0
        assert out.splitlines()[0].endswith("seed: 0")

    @pytest.mark.parametrize("flag", ["--beta-sd", "--dprime-sd"])
    @pytest.mark.parametrize("value", ["-1.2", "nan", "inf"])
    def test_bad_dispersion_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "propagate", "--beta", "3.54", "--dprime", "1.08",
                             "--samples", "100", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert flag in err


class TestSelftest:
    def test_default_build_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.count("PASS") == 7
        assert "7/7 checks passed" in out

    def test_tampered_coefficient_fails(self, capsys):
        code, out, _ = run(capsys, "selftest", "--set", "dose_response.value=4.54")
        assert code == 1
        assert "FAIL" in out

    def test_starved_sampling_fails(self, capsys):
        code, out, _ = run(capsys, "selftest", "--samples", "100")
        assert code == 1
