"""The README's CLI contract, for generated input. ``cli.main`` runs in-process
on scenario documents that are valid or one mutation away from valid, with
generated flags for all four commands and an ``ATTRISK_SEED`` value:

- the exit code is 0 or 2 (or 1 for a selftest whose checks fail);
- an exit-2 diagnostic is one line that leads with the field, flag or
  variable at fault;
- nothing reaches stdout on failure, and nothing reaches stderr on success;
- a run that exits 0 gives the same bytes when run again.

Samples stay <= 2000 and magnitudes <= 1e6, so each run takes milliseconds.
"""

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

import attrisk
from attrisk import cli, engine
from attrisk.scenario import FORMATS, parse_scenario

SYRIA = str(Path(attrisk.__file__).parent / "scenarios" / "syria_2010.yaml")
MAGNITUDE = 1e6
MAX_SAMPLES = 2000

LINEAR = {"name": "linear", "year": 2010, "anomaly_total": 2.48,
          "anthropogenic": {"value": 1.08, "dispersion": 0.37},
          "dose_response": {"kind": "linear", "value": 3.54, "dispersion": 1.2},
          "mc": {"seed": 7, "samples": 500}}
SURFACE = {**LINEAR, "name": "surface",
           "dose_response": {"kind": "surface", "knots": [[0, 1], [1, 1.05], [5, 1.6]]}}


def _paths(mapping, prefix=""):
    for key, value in mapping.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


#: What an exit-2 diagnostic may lead with: a config field, "scenario" (the
#: document, or a run it cannot support), a numeric flag or the seed variable.
NAMES = {*_paths(parse_scenario(LINEAR).canonical_dict()),
         *_paths(parse_scenario(SURFACE).canonical_dict()),
         "scenario", *cli.FLAG_FIELDS, cli.ENV_SEED}
LEAD = re.compile(r"error: (?:missing required field: |unknown key: "
                  r"|override path not a mapping: |--set )?([^:\s]+)")

RAW = "@raw@"  # stands for an unquoted YAML scalar in a dumped document


def numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


positive = numbers(0, MAGNITUDE).filter(lambda x: x > 0)

#: Flag, --set and ATTRISK_SEED text: numbers, and spellings that are not
#: YAML 1.2 decimal numbers or not YAML at all.
JUNK = st.sampled_from(["1_0", "٣", "0x10", ".nan", ".inf", "", "[1", "true", "null",
                        "1e400", "010", "{a: 1}", "2010-13-45", "'5'", "1:30"])
VALUES = st.one_of(st.integers(-5, MAX_SAMPLES).map(str),
                   numbers(-MAGNITUDE, MAGNITUDE).map(repr), JUNK)
SEEDS = st.one_of(st.integers(-1, 2 ** 64).map(str), JUNK)
SAMPLES = st.one_of(st.integers(0, MAX_SAMPLES).map(str), JUNK)
SET_KEYS = ["mc.seed", "anomaly_total", "anthropogenic.dispersion", "dose_response.value",
            "report.histogram_bins"]
RAW_SCALARS = ["'2.5'", "abc", "true", "null", "1_000", "0x10", ".nan", "[1]"]


@st.composite
def documents(draw):
    """A valid scenario mapping; a surface covers its anomaly."""
    if draw(st.booleans()):
        dose_response = {"kind": "linear", "value": draw(numbers(-MAGNITUDE, MAGNITUDE)),
                         "dispersion": draw(numbers(0, MAGNITUDE))}
        total = draw(numbers(0, MAGNITUDE))
        anthropogenic = draw(numbers(-MAGNITUDE, MAGNITUDE))
    else:
        ds = sorted(draw(st.lists(positive, min_size=1, max_size=5, unique=True)))
        rrs = draw(st.lists(positive, min_size=len(ds), max_size=len(ds)))
        dose_response = {"kind": "surface", "knots": [[0, 1], *map(list, zip(ds, rrs))]}
        total = draw(numbers(0, ds[-1]))
        anthropogenic = draw(numbers(0, total))
    # JSON escapes a non-BMP character as a surrogate pair, which YAML does
    # not join; test_scenario reads non-BMP names.
    bmp = st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",))
    doc = {"name": draw(st.text(bmp, min_size=1, max_size=8)),
           "year": draw(st.integers(-10 ** 6, 10 ** 6)),
           "anomaly_total": total,
           "anthropogenic": {"value": anthropogenic, "dispersion": draw(numbers(0, MAGNITUDE))},
           "dose_response": dose_response,
           "mc": {"seed": draw(st.integers(0, 2 ** 64)),
                  "samples": draw(st.integers(2, MAX_SAMPLES))}}
    if draw(st.booleans()):
        doc["report"] = {"quantiles": sorted(draw(st.lists(numbers(0, 1), min_size=1,
                                                            max_size=4))),
                         "histogram_bins": draw(st.integers(1, 100)),
                         "null_threshold": draw(numbers(-MAGNITUDE, MAGNITUDE))}
    return doc


def _leaves(node, path=()):
    """(path, value) for every mapping value and list item under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def scenario_texts(draw):
    """(YAML text, name of an added unknown key or None): a valid document, or
    one with a dropped key, an unknown key, a number replaced by a non-number,
    a negative dispersion or reversed knots."""
    doc = draw(documents())
    leaves = list(_leaves(doc))
    surface = doc["dose_response"]["kind"] == "surface"
    # Weighted to valid documents, so that enough runs exit 0 to be rerun.
    mutation = draw(st.sampled_from(["none"] * 4 + ["drop", "unknown", "scalar",
                                                    "negative-dispersion"]
                                    + (["unsorted-knots"] if surface else [])))
    raw, unknown = None, None
    if mutation == "drop":  # all but mc.samples, whose default of 1e6 is too slow here
        droppable = [p for p, _ in leaves if isinstance(p[-1], str) and p[0] != "mc"]
        path = draw(st.sampled_from(droppable))
        del _at(doc, path[:-1])[path[-1]]
    elif mutation == "unknown":
        path = draw(st.sampled_from([()] + [p for p, v in leaves if isinstance(v, dict)]))
        _at(doc, path)["extra"] = 1
        unknown = ".".join([*path, "extra"])
    elif mutation == "scalar":
        path = draw(st.sampled_from([p for p, v in leaves if isinstance(v, (int, float))]))
        _at(doc, path[:-1])[path[-1]] = RAW
        raw = draw(st.sampled_from(RAW_SCALARS))
    elif mutation == "negative-dispersion":
        block = draw(st.sampled_from(["anthropogenic"] + ([] if surface else ["dose_response"])))
        doc[block]["dispersion"] = -draw(positive)
    elif mutation == "unsorted-knots":
        doc["dose_response"]["knots"].reverse()
    text = json.dumps(doc)  # JSON is YAML; RAW marks where a plain scalar goes
    return (text if raw is None else text.replace(json.dumps(RAW), raw)), unknown


def required(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def option(flag, values):
    return st.one_of(st.just([]), required(flag, values))


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


SETS = st.lists(st.tuples(st.sampled_from(SET_KEYS), VALUES), max_size=2).map(
    lambda pairs: [f"--set={key}={value}" for key, value in pairs])

#: argv after the command (and, for attribute and report, the scenario path).
COMMANDS = {
    "attribute": joined(option("--seed", SEEDS), option("--samples", SAMPLES), SETS,
                        option("--format", st.sampled_from(FORMATS))),
    "propagate": joined(required("--beta", VALUES), required("--dprime", VALUES),
                        required("--samples", SAMPLES), option("--beta-sd", VALUES),
                        option("--dprime-sd", VALUES), option("--seed", SEEDS)),
    "selftest": joined(required("--samples", SAMPLES), option("--seed", SEEDS), SETS),
}
COMMANDS["report"] = COMMANDS["attribute"]
#: (command, argv after it and the scenario path).
CALLS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: COMMANDS[command].map(lambda flags: (command, flags)))


def run(argv, seed_variable):
    """main(argv) in-process: (exit code, stdout bytes, stderr text)."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(err):
        os.environ.pop(cli.ENV_SEED, None)
        if seed_variable is not None:
            os.environ[cli.ENV_SEED] = seed_variable
        code = cli.main(argv)
        stdout.flush()
    return code, out.getvalue(), err.getvalue()


# A line break in the name once made a two-line refusal.
@example(call=("attribute", ["--set=anomaly_total=0"]),
         scenario=(json.dumps({**SURFACE, "name": "\n"}), None), seed_variable=None)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=CALLS, scenario=scenario_texts(), seed_variable=st.none() | SEEDS)
def test_cli_contract(tmp_path, call, scenario, seed_variable):
    (command, flags), (text, unknown) = call, scenario
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    argv = [command, *([str(path)] if command in ("attribute", "report") else []), *flags]
    code, out, err = run(argv, seed_variable)
    event(f"{command} exit {code}")
    if code == 0:
        assert err == ""
        assert run(argv, seed_variable) == (0, out, "")
    elif code == 1:  # only a selftest whose checks ran and failed
        assert command == "selftest" and err == "", err
        assert out.decode().endswith(" checks passed\n")
    else:
        assert code == 2
        assert out == b""
        assert err.count("\n") == 1, err
        lead = LEAD.match(err)
        assert lead and lead[1] in NAMES | {unknown}, err


@pytest.mark.parametrize("argv", [
    ["attribute", SYRIA, "--samples=100"], ["report", SYRIA, "--samples=100"],
    ["propagate", "--beta=3.54", "--dprime=1.08", "--samples=100"],
    ["selftest", "--samples=100"],
], ids=["attribute", "report", "propagate", "selftest"])
def test_runtime_fault_exits_1_with_nothing_on_stdout(monkeypatch, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("injected")

    monkeypatch.setattr(engine, "map_chunks", exhausted)
    code, out, err = run(argv, None)
    assert (code, out) == (1, b"")
    assert err.startswith("error: scenario '") and err.endswith(": injected\n")
