import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attrisk
from attrisk import engine, scenario
from attrisk.cli import main
from attrisk.engine import BETA_STREAM, DPRIME_STREAM
from attrisk.uq import CHUNK_SIZE, RandomStream

SCENARIOS = Path(attrisk.__file__).parent / "scenarios"
SYRIA = str(SCENARIOS / "syria_2010.yaml")
TEMPERATURE = str(SCENARIOS / "syria_2010_temperature_illustrative.yaml")

SURFACE_YAML = """\
name: cli_surface
year: 2010
anomaly_total: 2.0
anthropogenic: {value: 1.2, dispersion: 0.5}
dose_response:
  kind: surface
  knots: [[0, 1], [1, 1.05], [2, 1.15], [3, 1.3], [5, 1.6]]
mc: {samples: 20000}
"""


@pytest.fixture
def surface_scenario(tmp_path):
    path = tmp_path / "surface.yaml"
    path.write_text(SURFACE_YAML)
    return str(path)


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

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "attribute", str(tmp_path))
        assert code == 2
        assert out == ""
        assert str(tmp_path) in err

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("name: S\xe3o Paulo\n".encode("latin-1"))
        code, out, err = run(capsys, "attribute", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err

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

    def test_negative_env_seed_is_named_when_file_silent(self, capsys, monkeypatch,
                                                        no_mc_scenario):
        monkeypatch.setenv("ATTRISK_SEED", "-1")
        code, out, err = run(capsys, "report", no_mc_scenario, "--samples", "100")
        assert code == 2
        assert out == ""
        assert "ATTRISK_SEED" in err and "mc.seed" not in err

    def test_negative_env_seed_is_rejected_when_file_sets_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRISK_SEED", "-1")
        code, out, err = run(capsys, "report", SYRIA, "--samples", "100")
        assert code == 2
        assert out == ""
        assert "ATTRISK_SEED" in err


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

    @pytest.mark.parametrize("dispersions", [[], ["--beta-sd", "1.2", "--dprime-sd", "0.37"]],
                             ids=["point", "normal"])
    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--beta", "inf"), ("--beta", "-inf"),
        ("--dprime", "nan"), ("--dprime", "inf"),
        ("--samples", "1"), ("--samples", "0"), ("--seed", "-1"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, capsys, flag, value, dispersions):
        argv = {"--beta": "3.54", "--dprime": "1.08", "--samples": "100", flag: value}
        code, out, err = run(capsys, "propagate", *dispersions,
                             *(f"{k}={v}" for k, v in argv.items()))
        assert code == 2
        assert out == ""
        assert flag in err

    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRISK_SEED", "-1")
        code, out, err = run(capsys, "propagate", "--beta", "3.54", "--dprime", "1.08",
                             "--samples", "100")
        assert code == 2
        assert out == ""
        assert "ATTRISK_SEED" in err

    @pytest.mark.parametrize("dispersions", [[], ["--beta-sd", "1.2", "--dprime-sd", "0.37"]],
                             ids=["point", "normal"])
    def test_samples_beyond_physical_memory_is_usage_error(self, capsys, monkeypatch,
                                                           dispersions):
        def unreachable(*args, **kwargs):
            raise AssertionError("a sampler was reached")

        for owner, name in [(engine, "map_chunks"), (RandomStream, "generators")]:
            monkeypatch.setattr(owner, name, unreachable)
        code, out, err = run(capsys, "propagate", "--beta", "3.54", "--dprime", "1.08",
                             *dispersions, "--samples", str(10 ** 15))
        assert code == 2
        assert out == ""
        assert "--samples" in err


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

    def test_point_input_prints_every_check(self, capsys):
        code, out, err = run(capsys, "selftest", "--set", "anthropogenic.dispersion=0")
        lines = out.splitlines()
        assert code == 1
        assert "error:" not in err
        assert len(lines) == 8 and lines[-1].endswith("/7 checks passed")
        assert [line.split()[1] for line in lines[:7]] == [
            "natural_point", "anthropogenic_point", "median", "p05", "p95",
            "null_rejection", "mc_moments"]
        assert lines[6].startswith("PASS")


#: The syria_2010 inputs as propagate flags, and a run of several Philox chunks.
SYRIA_FLAGS = ["--beta", "3.54", "--beta-sd", "1.2", "--dprime", "1.08", "--dprime-sd", "0.37"]
PIPELINE_N = 2 * CHUNK_SIZE + 3
PIPELINE_RUN = ["--seed", "11", "--samples", str(PIPELINE_N)]


class TestOnePipeline:
    """report, propagate and selftest all run through run_scenario."""

    @pytest.mark.parametrize("argv", [["report", SYRIA], ["propagate", *SYRIA_FLAGS],
                                      ["selftest"]], ids=["report", "propagate", "selftest"])
    def test_each_stream_drawn_once(self, capsys, monkeypatch, argv):
        calls = []
        key = RandomStream.generators

        def counted(stream, n):
            calls.append((stream.label, n))
            return key(stream, n)

        monkeypatch.setattr(RandomStream, "generators", counted)
        code, _, err = run(capsys, *argv, *PIPELINE_RUN)
        assert code in (0, 1) and err == ""
        assert sorted(calls) == [(BETA_STREAM, PIPELINE_N), (DPRIME_STREAM, PIPELINE_N)]

    def test_propagate_prints_the_report_statistics(self, capsys):
        code, out, _ = run(capsys, "propagate", *SYRIA_FLAGS, *PIPELINE_RUN)
        assert code == 0
        _, doc, _ = run(capsys, "report", SYRIA, "--format", "json", *PIPELINE_RUN)
        report = json.loads(doc)
        s, prov = report["distribution_summary"], report["provenance"]
        assert out.splitlines() == [
            f"samples: {prov['samples']}  seed: {prov['seed']}",
            f"mean:   {s['mean']:.4f}",
            f"median: {s['median']:.4f}",
            f"IQR:    [{s['q25']:.4f}, {s['q75']:.4f}]",
            f"90%:    [{s['p05']:.4f}, {s['p95']:.4f}]",
            f"99%:    [{s['p005']:.4f}, {s['p995']:.4f}]",
            f"p_value (at or below 0): {report['p_value']:.4f}",
        ]


class TestRuntimeFailure:
    def test_quadrature_disagreement_is_runtime_error(self, capsys, monkeypatch,
                                                      surface_scenario):
        def disagree(response, decomp):
            raise ArithmeticError("quadrature and antiderivative-difference paths disagree")

        monkeypatch.setattr(scenario, "integral_attribution", disagree)
        code, out, err = run(capsys, "attribute", surface_scenario)
        assert code == 1
        assert out == ""
        assert "cli_surface" in err and "disagree" in err

    def test_uncovered_domain_stays_config_error(self, capsys, surface_scenario):
        code, out, err = run(capsys, "attribute", surface_scenario,
                             "--set", "dose_response.knots=[[0, 1], [1, 1.05]]")
        assert code == 2
        assert out == ""
        assert "cli_surface" in err and "last surface knot" in err


def run_fresh(*argv):
    """Run ``main(argv)`` in a new interpreter; return (exit code, scipy loaded)."""
    child = ("import sys, attrisk.cli\n"
             "code = attrisk.cli.main(sys.argv[1:])\n"
             "print('scipy loaded:', 'scipy' in sys.modules, file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = {k: v for k, v in os.environ.items() if k != "ATTRISK_SEED"}
    src = str(Path(attrisk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("scipy loaded: "), proc.stderr
    return proc.returncode, last == "scipy loaded: True"


class TestColdStart:
    """No command imports scipy: the surface interpolant is numpy."""

    @pytest.mark.parametrize("argv", [
        ["attribute", SYRIA, "--samples", "20000"],
        ["report", TEMPERATURE, "--format", "json", "--samples", "20000"],
        ["propagate", "--beta", "3.54", "--dprime", "1.08", "--samples", "20000"],
        ["propagate", "--beta", "3.54", "--beta-sd", "1.2", "--dprime", "1.08",
         "--dprime-sd", "0.37", "--samples", "20000"],
        ["selftest"],
    ], ids=["attribute", "report", "propagate-point", "propagate-normal", "selftest"])
    def test_linear_commands_never_load_scipy(self, argv):
        assert run_fresh(*argv) == (0, False)

    def test_surface_scenario_never_loads_scipy(self, surface_scenario):
        assert run_fresh("attribute", surface_scenario) == (0, False)
