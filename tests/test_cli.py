import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import attrisk
from attrisk import cli, engine, scenario, uq
from attrisk.cli import main
from attrisk.engine import BETA_STREAM, DPRIME_STREAM
from attrisk.uq import CHUNK_SIZE

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


@pytest.fixture
def no_sampler(monkeypatch):
    """Fails a test that reaches a random draw."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a sampler was reached")

    for owner, name in [(engine, "map_chunks"), (uq, "SeedSequence")]:
        monkeypatch.setattr(owner, name, unreachable)


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

    def test_unreadable_file_is_usage_error(self, capsys, monkeypatch):
        # The suite may run as root, which reads any file: deny the open instead.
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(scenario, "open", denied, raising=False)
        code, out, err = run(capsys, "attribute", SYRIA)
        assert code == 2
        assert out == ""
        assert SYRIA in err and "not readable" in err

    def test_bad_override_path_is_usage_error(self, capsys):
        code, _, err = run(capsys, "attribute", SYRIA, "--set", "mc.sede=7")
        assert code == 2
        assert "mc.sede" in err

    @pytest.mark.parametrize("knot, message", [
        ("[3, null]", "expected a number, got None"),
        ("[3, .inf]", "must be finite, got inf"),
        ("[1, 0.5], [3, -2]", "surface relative risks must be > 0"),
        ("[3, 0]", "surface relative risks must be > 0"),
    ], ids=["null", "inf", "rr-negative", "rr-zero"])
    def test_bad_knot_is_usage_error(self, capsys, knot, message):
        code, out, err = run(capsys, "report", SYRIA, "--set",
                             f"dose_response={{kind: surface, knots: [[0, 1], {knot}]}}")
        assert code == 2
        assert out == ""
        assert err == f"error: dose_response.knots: {message}\n"

    def test_subnormal_knot_spacing_is_usage_error(self, capsys, no_sampler):
        # Refused before any draw, with stderr the one error line: under the
        # suite's warnings-as-errors, a numpy RuntimeWarning would exit 1.
        knots = "[[0, 1], [1.0e-310, 2], [3, 3]]"
        code, out, err = run(capsys, "report", SYRIA, "--set",
                             f"dose_response={{kind: surface, knots: {knots}}}")
        assert (code, out) == (2, "")
        assert err == ("error: dose_response.knots: "
                       "the cubic through these knots leaves the float range\n")

    def test_overflowing_end_cubic_is_usage_error(self, capsys):
        # Knots 1.3e-101 apart give finite coefficients up to 1.2e306, so the
        # left end cubic overflows at draws below D = 0. Under the suite's
        # warnings-as-errors, numpy's overflow warning would exit 1.
        knots = "[[0, 1], [1.3264643138277816e-101, 2857.0], [1, 1], [2, 1], [3, 1]]"
        code, out, err = run(capsys, "report", SYRIA, "--seed", "0", "--samples", "4",
                             "--set", f"dose_response={{kind: surface, knots: {knots}}}",
                             "--set", "anomaly_total=0",
                             "--set", "anthropogenic={value: 0, dispersion: 1}")
        assert (code, out) == (2, "")
        assert err == "error: scenario 'syria_2010': samples must be finite\n"

    def test_one_chunk_beta_overflow_is_usage_error(self, capsys):
        # A run of one chunk draws beta on the calling thread, before D': its
        # overflow must be as quiet there as in a pool task.
        code, out, err = run(capsys, "report", SYRIA, "--samples", "17",
                             "--set", "dose_response.dispersion=1e308")
        assert (code, out) == (2, "")
        assert err == "error: scenario 'syria_2010': samples must be finite\n"

    @pytest.mark.parametrize("argv, seed_variable, name", [
        (["report", SYRIA, "--seed=-1"], None, "--seed"),
        (["selftest", "--seed=-1"], None, "--seed"),
        (["attribute", SYRIA, "--seed=1_0"], None, "--seed"),
        (["report", SYRIA, "--seed=\u0663"], None, "--seed"),
        (["attribute", SYRIA, "--samples=1_000"], None, "--samples"),
        (["selftest", "--samples=[1"], None, "--samples"),
        (["report", SYRIA, "--samples=100"], "1_0", "ATTRISK_SEED"),
        (["propagate", "--beta=3.54", "--dprime=1.08", "--samples=100"], "1_0", "ATTRISK_SEED"),
    ], ids=["report-negative-seed", "selftest-negative-seed", "underscore-seed",
            "arabic-indic-seed", "underscore-samples", "samples-not-yaml",
            "underscore-variable", "propagate-underscore-variable"])
    def test_bad_flag_or_seed_variable_is_named(self, capsys, monkeypatch, argv,
                                                seed_variable, name):
        if seed_variable is not None:
            monkeypatch.setenv("ATTRISK_SEED", seed_variable)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}: ") and "mc." not in err

    @pytest.mark.parametrize("argv, key", [
        (["attribute", SYRIA, "--set", "mc.seed=[1"], "mc.seed"),
        (["selftest", "--set", "mc.samples=["], "mc.samples"),
    ], ids=["attribute", "selftest"])
    def test_set_value_not_yaml_is_usage_error(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --set {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", [".", "no-such-dir/report.json"],
                             ids=["directory", "missing-directory"])
    def test_out_that_cannot_be_opened_is_usage_error(self, capsys, tmp_path, target):
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, "report", SYRIA, "--samples", "2000", "--out", out_path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --out {out_path}: ")

    def test_out_naming_the_scenario_is_usage_error(self, capsys, tmp_path, no_sampler):
        path = tmp_path / "syria_2010.yaml"  # a copy: the bundled file is never a target
        path.write_bytes(Path(SYRIA).read_bytes())
        out_path = os.path.join(tmp_path, ".", path.name)
        code, out, err = run(capsys, "report", str(path), "--out", out_path)
        assert (code, out) == (2, "")
        assert err == f"error: --out {out_path}: is the scenario file itself\n"
        assert path.read_bytes() == Path(SYRIA).read_bytes()

    def test_out_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_text("an earlier, longer report\n" * 1000)
        code, out, _ = run(capsys, "report", SYRIA, "--samples", "2000",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["scenario"] == "syria_2010"
        assert doc["provenance"]["samples"] == 2000
        assert os.listdir(tmp_path) == ["report.json"]  # no temporary file is left

    def test_out_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "report.json", tmp_path / "link.json"
        target.write_text("an earlier report\n")
        link.symlink_to(target)
        code, out, _ = run(capsys, "report", SYRIA, "--samples", "2000", "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["link.json", "report.json"]
        assert json.loads(target.read_text())["provenance"]["samples"] == 2000

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_out_to_a_fifo_is_written_as_is(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "report", SYRIA, "--samples", "2000", "--out", str(fifo))
        reader.join(timeout=60)
        assert (code, out) == (0, "")
        assert json.loads(got[0])["provenance"]["samples"] == 2000
        assert os.listdir(tmp_path) == ["fifo"]

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

    @pytest.mark.parametrize("name", ["x\ny", "x\r\n\u2028\x85y"], ids=["newline", "breaks"])
    def test_human_report_writes_the_name_on_one_line(self, capsys, name):
        # A line break in the name is written escaped, as in an error line.
        code, out, err = run(capsys, "attribute", SYRIA, "--samples", "100",
                             "--set", f"name={json.dumps(name)}")
        assert (code, err) == (0, "")
        plain = run(capsys, "attribute", SYRIA, "--samples", "100")[1]
        assert out.splitlines()[0] == f"Scenario: {repr(name)[1:-1]} (2010)"
        assert len(out.splitlines()) == len(plain.splitlines())


ATTRIBUTE = {"command": "attribute", "scenario": "s.yaml", "format": "human", "out": None,
             "set": [], "seed": None, "samples": None, "func": cli.cmd_attribute}
PROPAGATE = {"command": "propagate", "beta": "1", "beta_sd": None, "dprime": "2",
             "dprime_sd": None, "seed": None, "samples": None, "func": cli.cmd_propagate,
             "scenario": os.path.join(cli.SCENARIOS, "propagate.yaml")}
SELFTEST = {"command": "selftest", "set": [], "seed": None, "samples": None,
            "func": cli.cmd_selftest, "scenario": os.path.join(cli.SCENARIOS, "syria_2010.yaml")}
GIVEN = ["--seed", "3", "--samples", "4"]
#: Each command's parse at its defaults and with every flag given, as vars(args).
PARSES = {
    "attribute": (["attribute", "s.yaml"], ATTRIBUTE),
    "attribute-flags": (["attribute", "s.yaml", "--format", "csv", "--out", "o.csv",
                         "--set", "a=1", "--set", "b=2", *GIVEN],
                        {**ATTRIBUTE, "format": "csv", "out": "o.csv", "set": ["a=1", "b=2"],
                         "seed": "3", "samples": "4"}),
    "report": (["report", "s.yaml"], {**ATTRIBUTE, "command": "report", "format": "json"}),
    "report-flags": (["report", "s.yaml", "--format", "human", "--out", "o.txt",
                      "--set", "a=1", *GIVEN],
                     {**ATTRIBUTE, "command": "report", "out": "o.txt", "set": ["a=1"],
                      "seed": "3", "samples": "4"}),
    "propagate": (["propagate", "--beta", "1", "--dprime", "2"], PROPAGATE),
    "propagate-flags": (["propagate", "--beta", "1", "--beta-sd", "0.5", "--dprime", "2",
                         "--dprime-sd", "0.25", *GIVEN],
                        {**PROPAGATE, "beta_sd": "0.5", "dprime_sd": "0.25",
                         "seed": "3", "samples": "4"}),
    "selftest": (["selftest"], SELFTEST),
    "selftest-flags": (["selftest", "--set", "a=1", "--set", "b=2", *GIVEN],
                       {**SELFTEST, "set": ["a=1", "b=2"], "seed": "3", "samples": "4"}),
}
#: The options each --help lists, by command ("" is attrisk itself).
OPTIONS = {"": {"-h", "--help", "--version"},
           **dict.fromkeys(["attribute", "report"], {"-h", "--help", "--seed", "--samples",
                                                     "--set", "--format", "--out"}),
           "propagate": {"-h", "--help", "--seed", "--samples", "--beta", "--beta-sd",
                         "--dprime", "--dprime-sd"},
           "selftest": {"-h", "--help", "--seed", "--samples", "--set"}}
COMMAND_IDS = [command or "attrisk" for command in OPTIONS]


def help_of(capsys, monkeypatch, command):
    """The stdout of attrisk [command] --help, at a fixed terminal width."""
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "") and out.startswith(f"usage: attrisk {command}".rstrip())
    return out


def option_helps(text):
    """{option: [its help line, once per entry]} from a --help text's options."""
    lines = text.split("\noptions:\n", 1)[1].splitlines()
    helps = {}
    for i, line in enumerate(lines):
        if line.startswith("  -"):
            invocation, _, help = line.strip().partition("  ")
            if not help and i + 1 < len(lines) and lines[i + 1].startswith("   "):
                help = lines[i + 1]  # the help under an invocation too wide beside it
            for name in re.findall(r"(?:^|, )(-[-\w]+)", invocation):
                helps.setdefault(name, []).append(help.strip())
    return helps


class TestParser:
    @pytest.mark.parametrize("argv, expected", PARSES.values(), ids=PARSES)
    def test_parse_result(self, argv, expected):
        args = vars(cli.build_parser().parse_args(argv))
        assert args == expected and args["func"] is expected["func"]

    @pytest.mark.parametrize("command", OPTIONS, ids=COMMAND_IDS)
    def test_help_names_each_option_once(self, capsys, monkeypatch, command):
        helps = option_helps(help_of(capsys, monkeypatch, command))
        assert set(helps) == OPTIONS[command]
        assert all(len(lines) == 1 for lines in helps.values()), helps

    @pytest.mark.parametrize("command", OPTIONS, ids=COMMAND_IDS)
    def test_every_option_has_a_help_line(self, capsys, monkeypatch, command):
        helps = option_helps(help_of(capsys, monkeypatch, command))
        assert all(lines[0] for lines in helps.values()), helps

    def test_a_shared_option_has_one_help_line(self, capsys, monkeypatch):
        helps = [option_helps(help_of(capsys, monkeypatch, command)) for command in OPTIONS]
        for option in ["--seed", "--samples", "--set"]:
            assert len({tuple(h[option]) for h in helps if option in h}) == 1, option


SURFACE_SET = "dose_response={kind: surface, knots: [[0, 1], [5, 1.2]]}"
#: CLI refusals of syria_2010 at --samples 100: (--set pairs, stderr line).
CLI_REFUSALS = {
    "no-equals": (["noequals"], "--set expects KEY=VALUE, got 'noequals'"),
    "empty-key": (["=5"], "--set expects a dotted key, got '=5'"),
    "through-a-value": (["name.x=1"], "override path not a mapping: name.x"),
    **{f"empty-segment-{pair}": ([pair], f"--set expects a dotted key, got {pair!r}")
       for pair in [".=5", "mc.=1", "mc..seed=1", ".mc.seed=1"]},
    "natural-below-surface": ([SURFACE_SET, "anthropogenic.value=3"],
                              "scenario 'syria_2010': natural component -0.52 "
                              "is below the surface domain"),
    "anomaly-beyond-surface": ([SURFACE_SET, "anomaly_total=6"],
                               "scenario 'syria_2010': anomaly 6.0 exceeds "
                               "the last surface knot at D=5.0"),
    # A line break in a name or a key is written escaped, as repr writes it.
    "line-break-in-name": ([SURFACE_SET, 'name="x\\ny"', "anomaly_total=6"],
                           "scenario 'x\\ny': anomaly 6.0 exceeds the last surface knot at D=5.0"),
    "line-breaks-in-name": ([SURFACE_SET, 'name="x\\r\\n\\u2028\\x85y"', "anomaly_total=6"],
                            "scenario 'x\\r\\n\\u2028\\x85y': anomaly 6.0 exceeds "
                            "the last surface knot at D=5.0"),
    "line-break-in-key": (["bo\ngus=1"], "unknown key: bo\\ngus"),
    "repeated-key": (["mc={samples: 100, samples: 200}"],
                     "--set mc: not a YAML value: '{samples: 100, samples: 200}'"),
}


@pytest.mark.parametrize("sets, message", CLI_REFUSALS.values(), ids=CLI_REFUSALS)
def test_refusal_is_one_error_line(capsys, sets, message):
    argv = ["attribute", SYRIA, "--samples", "100"]
    for pair in sets:
        argv += ["--set", pair]
    # Under the suite's warnings-as-errors an unexpected warning would exit 1.
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


#: Scenario files refused as one line: (text, where, what). PyYAML's pure
#: loader words some problems otherwise; both say what and where once.
FILE_REFUSALS = {
    "unclosed-flow": ("name: x\nyear: [1\n", "line 3, column 1", "expected ',' or ']'"),
    "control-character": ("name: x\x07\n", "line 1, column 8", "unacceptable character #x0007: "),
    "repeated-key": ("name: x\nyear: 2010\nname: y\n", "line 3, column 1",
                     "found duplicate key 'name'"),
}


@pytest.mark.parametrize("text, where, what", FILE_REFUSALS.values(), ids=FILE_REFUSALS)
def test_file_refusal_is_one_error_line(capsys, tmp_path, text, where, what):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "attribute", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: parse error at {where}: ")
    assert what in err and err.count("\n") == 1 and "<unicode string>" not in err, err


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
        ("--beta", "1_0"), ("--beta", "\u0663.5"), ("--dprime", "[1"),
        ("--seed", "1_0"), ("--seed", "\u0663"), ("--samples", "1_000"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, capsys, flag, value, dispersions):
        argv = {"--beta": "3.54", "--dprime": "1.08", "--samples": "100", flag: value}
        code, out, err = run(capsys, "propagate", *dispersions,
                             *(f"{k}={v}" for k, v in argv.items()))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ")

    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRISK_SEED", "-1")
        code, out, err = run(capsys, "propagate", "--beta", "3.54", "--dprime", "1.08",
                             "--samples", "100")
        assert code == 2
        assert out == ""
        assert "ATTRISK_SEED" in err

    @pytest.mark.parametrize("dispersions", [[], ["--beta-sd", "1.2", "--dprime-sd", "0.37"]],
                             ids=["point", "normal"])
    def test_samples_beyond_physical_memory_is_usage_error(self, capsys, no_sampler,
                                                           dispersions):
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

    def test_surface_scenario_is_usage_error(self, capsys, no_sampler):
        code, out, err = run(capsys, "selftest", "--set",
                             "dose_response={kind: surface, knots: [[0, 1], [3, 1.2]]}",
                             "--samples", "20000")
        assert code == 2
        assert out == ""
        assert "dose_response" in err


#: The syria_2010 inputs as propagate flags, and a run of several Philox chunks.
SYRIA_FLAGS = ["--beta", "3.54", "--beta-sd", "1.2", "--dprime", "1.08", "--dprime-sd", "0.37"]
PIPELINE_N = 2 * CHUNK_SIZE + 3
PIPELINE_RUN = ["--seed", "11", "--samples", str(PIPELINE_N)]


class TestOnePipeline:
    """report, propagate and selftest all run through run_scenario."""

    @pytest.mark.parametrize("argv", [["report", SYRIA], ["propagate", *SYRIA_FLAGS],
                                      ["selftest"]], ids=["report", "propagate", "selftest"])
    def test_each_stream_drawn_once(self, capsys, spawn_keys, argv):
        code, _, err = run(capsys, *argv, *PIPELINE_RUN)
        assert code in (0, 1) and err == ""
        # Each of the three chunks of each stream is keyed once, and nothing else is.
        assert sorted(spawn_keys) == [(label, i) for label in (BETA_STREAM, DPRIME_STREAM)
                                      for i in range(3)]

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
        def disagree(*args):
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


def fresh_env():
    """The environment for a new interpreter that imports this attrisk."""
    env = {k: v for k, v in os.environ.items() if k != "ATTRISK_SEED"}
    src = str(Path(attrisk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(*argv):
    """Run ``main(argv)`` in a new interpreter; return (exit code, scipy loaded)."""
    child = ("import sys, attrisk.cli\n"
             "code = attrisk.cli.main(sys.argv[1:])\n"
             "print('scipy loaded:', 'scipy' in sys.modules, file=sys.stderr)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=fresh_env(),
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

    def test_import_loads_no_executor_or_logging(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, attrisk.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging'))))"],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


#: Runs the program path sys.argv[1] on sys.argv[2:]: "run" as the console
#: script does, "-m" as ``python -m attrisk.cli`` does. An atexit hook,
#: registered first and so run last, states whether the heap was frozen.
PROGRAM = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
path = sys.argv.pop(1)
if path == "run":
    from attrisk.cli import run
    run()
else:
    runpy.run_module("attrisk.cli", run_name="__main__")
"""

SMALL_REPORT = ["report", SYRIA, "--format", "json", "--samples", "20000"]
#: A success and a refusal: (argv, exit code).
PROGRAM_RUNS = {"report": (SMALL_REPORT, 0),
                "missing-file": (["report", "no-such-scenario.yaml"], 2)}


class TestProgram:
    """The program, the console script or ``python -m attrisk.cli``, freezes
    the heap once its command returns; ``main(argv)`` leaves the collector alone."""

    @pytest.mark.parametrize("path", ["run", "-m"])
    @pytest.mark.parametrize("argv, code", PROGRAM_RUNS.values(), ids=PROGRAM_RUNS)
    def test_program_exits_with_main_code_on_a_frozen_heap(self, path, argv, code):
        proc = subprocess.run([sys.executable, "-c", PROGRAM, path, *argv], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        *errors, frozen = proc.stderr.splitlines()
        assert (proc.returncode, frozen) == (code, "frozen: True"), proc.stderr
        if code:
            assert proc.stdout == ""
            [line] = errors
            assert line.startswith("error: ") and "no-such-scenario.yaml" in line
        else:
            assert errors == [] and json.loads(proc.stdout)["scenario"] == "syria_2010"

    def test_module_prints_the_bytes_main_writes(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "attrisk.cli", *SMALL_REPORT],
                              env=fresh_env(), capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        out = tmp_path / "report.json"
        assert main([*SMALL_REPORT, "--out", str(out)]) == 0
        assert proc.stdout == out.read_bytes()

    @pytest.mark.parametrize("argv, code", PROGRAM_RUNS.values(), ids=PROGRAM_RUNS)
    def test_main_leaves_the_collector_alone(self, capsys, argv, code):
        before = gc.get_freeze_count()
        assert main(argv) == code
        assert gc.get_freeze_count() == before

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"attrisk": "attrisk.cli:run"}


#: Configs whose results leave the float range: a product beyond 1.8e308, and
#: a dispersion so wide that the samples' sum overflows.
NON_FINITE_SETS = {
    "huge-beta": ["dose_response.value=1.0e+308", "dose_response.dispersion=0",
                  "anomaly_total=10", "anthropogenic.value=1", "anthropogenic.dispersion=0.01"],
    "huge-dispersion": ["dose_response.value=0", "dose_response.dispersion=3.0e+307",
                        "anomaly_total=10", "anthropogenic.value=1",
                        "anthropogenic.dispersion=0"],
}


@pytest.mark.parametrize("sets", NON_FINITE_SETS.values(), ids=NON_FINITE_SETS)
def test_non_finite_result_is_usage_error(sets):
    # A new interpreter, whose numpy warnings are not errors, as for users:
    # the one line on stderr is the error, with no numpy warning before it.
    argv = ["report", SYRIA, "--samples", "2000"]
    for pair in sets:
        argv += ["--set", pair]
    proc = subprocess.run([sys.executable, "-m", "attrisk.cli", *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert "not a finite number" in line


#: D' = 3 above syria_2010's total of 2.48 in a new interpreter, whose warnings
#: are not errors, as for users: (argv, exit code, stdout pattern, stderr). The
#: report states the share of D' draws above the total; stderr holds only an error.
DPRIME_ABOVE_TOTAL = {
    "surface-refusal": (["--samples", "100", "--set", SURFACE_SET], 2, r"\Z",
                        "error: scenario 'syria_2010': natural component -0.52 "
                        "is below the surface domain\n"),
    "linear-report": (["--samples", "1000"], 0,
                      r"(?m).*^WARNING: \d+\.\d% of anthropogenic draws exceed the total "
                      r"anomaly \(negative natural component implied\)$", ""),
}


@pytest.mark.parametrize("argv, code, stdout, stderr", DPRIME_ABOVE_TOTAL.values(),
                         ids=DPRIME_ABOVE_TOTAL)
def test_dprime_above_total_is_stated_once(argv, code, stdout, stderr):
    proc = subprocess.run([sys.executable, "-m", "attrisk.cli", "attribute", SYRIA, *argv,
                           "--set", "anthropogenic.value=3"], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert re.match(stdout, proc.stdout, re.S), proc.stdout


#: A report of about 300 KB: more than a pipe holds, and more than the file-size
#: limit below.
LARGE_REPORT = ["report", SYRIA, "--samples", "2000", "--set", "report.histogram_bins=5000"]
FILE_SIZE_LIMIT = 100 * 1024


def limit_file_size():
    import resource  # Unix only; the tests that use it skip without it

    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


class TestOutputEdge:
    """A report reaches its reader whole, or the run exits 1 with one line that
    names the target and the bytes it took."""

    @pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
    def test_short_write_is_runtime_error(self, tmp_path, to_out):
        # The child's own limit: Python ignores SIGXFSZ, so the write comes up short.
        pytest.importorskip("resource")
        target = tmp_path / "report.json"
        target.write_bytes(b"an earlier report\n")
        argv = [*LARGE_REPORT, "--out", str(target)] if to_out else LARGE_REPORT
        with open(tmp_path / "stdout", "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "attrisk.cli", *argv],
                                  stdout=stdout, stderr=subprocess.PIPE, text=True,
                                  preexec_fn=limit_file_size, env=fresh_env(), timeout=120)
        name = f"--out {target}" if to_out else "stdout"
        assert proc.returncode == 1
        assert re.fullmatch(rf"error: {re.escape(name)}: wrote {FILE_SIZE_LIMIT} of \d+ bytes: "
                            r"File too large\n", proc.stderr), proc.stderr
        if to_out:  # the earlier file is as it was, and no temporary file is left
            assert target.read_bytes() == b"an earlier report\n"
            assert sorted(os.listdir(tmp_path)) == ["report.json", "stdout"]
        else:
            assert (tmp_path / "stdout").stat().st_size == FILE_SIZE_LIMIT

    def test_reader_that_closes_early_is_runtime_error(self):
        with subprocess.Popen([sys.executable, "-m", "attrisk.cli", *LARGE_REPORT],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=fresh_env()) as proc:
            assert proc.stdout.read(10) == b'{\n  "scena'
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert re.fullmatch(rb"error: stdout: wrote \d+ of \d+ bytes: Broken pipe\n", err), err

    @pytest.mark.parametrize("argv", [
        ["report", SYRIA, "--samples", "2000"],
        ["propagate", "--beta", "3.54", "--dprime", "1.08", "--samples", "2000"],
        ["selftest", "--samples", "2000"],
    ], ids=["report", "propagate", "selftest"])
    @pytest.mark.skipif(sys.platform == "win32", reason="preexec_fn is POSIX only")
    def test_closed_stdout_is_runtime_error(self, argv):
        proc = subprocess.run([sys.executable, "-m", "attrisk.cli", *argv],
                              stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1),
                              env=fresh_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (1, "error: stdout is closed\n")


#: Runs ``main(sys.argv[2:])`` with every draw 20 ms slower, touching the file
#: sys.argv[1] once the run has begun.
SLOW_RUN = """\
import sys, time
from attrisk import cli, engine

sampler = engine.chunk_sampler


def slow_sampler(*args):
    draw = sampler(*args)

    def slow(i, chunk):
        open(sys.argv[1], "a").close()
        time.sleep(0.02)
        draw(i, chunk)

    return slow


engine.chunk_sampler = slow_sampler
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child there")
def test_interrupt_is_one_error_line_and_exit_130(tmp_path):
    begun = tmp_path / "begun"
    proc = subprocess.Popen([sys.executable, "-c", SLOW_RUN, str(begun), "report", SYRIA,
                             "--samples", str(64 * CHUNK_SIZE)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    deadline = time.monotonic() + 60
    while not begun.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (130, b"", b"error: interrupted\n")
