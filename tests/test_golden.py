"""Byte-exact guard on the reports of fixed scenarios at default settings.

The report bytes follow from (config, seed, n) and from numpy's Generator
stream, which NEP 19 does not fix across numpy versions, so the digests are
checked only on the numpy release they were recorded with.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import attrisk
from attrisk.cli import main

SCENARIOS = Path(attrisk.__file__).parent / "scenarios"

pytestmark = pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"golden digests were recorded on numpy 2.4.x, found {np.__version__}")

# Several Philox chunks, a sample count that is not a multiple of the chunk
# size, and ~5.5% of D' draws above the total, so the exceedance is non-zero.
SURFACE_YAML = """\
name: golden_surface
year: 2010
anomaly_total: 2.0
anthropogenic: {value: 1.2, dispersion: 0.5}
dose_response:
  kind: surface
  knots: [[0, 1], [1, 1.05], [2, 1.15], [3, 1.3], [5, 1.6]]
mc: {samples: 200003}
"""


def scenario_path(name, tmp_path):
    if name != "golden_surface":
        return SCENARIOS / f"{name}.yaml"
    path = tmp_path / "surface.yaml"
    path.write_text(SURFACE_YAML)
    return path


def report_sha256(path, tmp_path, fmt="json"):
    out = tmp_path / f"report.{fmt}"
    assert main(["report", str(path), "--format", fmt, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


CASES = [
    ("syria_2010", "json", "7d08e1682762c503e6f867ae9042e91cb33f0f0a4b8f64f3bf6f358bbabd6384"),
    ("syria_2010_temperature_illustrative", "json",
     "57aa89f671897829c9b14442da0e4a5b9ced203b437bb319d4eb1640d39accf0"),
    ("syria_2010", "human",
     "d7a0df10dcc13e1732d5134b131b4fd36805116a57051c799f46f8e4e4c853d5"),
    ("syria_2010", "csv",
     "e05da07f4a7eb0fe2c13b9dd47fa1c24950449f13ab49567a8022beea844030a"),
    ("golden_surface", "human",
     "04ec13b1fac24de008ccf67380beec2c5ea8e993350c943e3b7d439a8cc4cf7b"),
    ("golden_surface", "csv",
     "eaf1041b23f87609666d279d65d74c97c68c8d6d75fd0a62681759b38229f715"),
]


@pytest.mark.parametrize("name, fmt, digest", [
    pytest.param(name, fmt, digest,
                 id=f"{name}-{digest}" if fmt == "json" else f"{name}-{fmt}-{digest}")
    for name, fmt, digest in CASES])
def test_bundled_report_bytes(name, fmt, digest, tmp_path):
    assert report_sha256(scenario_path(name, tmp_path), tmp_path, fmt) == digest


def test_surface_report_bytes(tmp_path):
    digest = "af3154d1503af7be6490a83b45b282f81b10f4dfab3f2ced903701d34ac990c2"
    assert report_sha256(scenario_path("golden_surface", tmp_path), tmp_path) == digest
