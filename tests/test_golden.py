"""Byte-exact guard on the JSON report of fixed scenarios at default settings.

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


def report_sha256(path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", str(path), "--format", "json", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("syria_2010", "7d08e1682762c503e6f867ae9042e91cb33f0f0a4b8f64f3bf6f358bbabd6384"),
    ("syria_2010_temperature_illustrative",
     "57aa89f671897829c9b14442da0e4a5b9ced203b437bb319d4eb1640d39accf0"),
])
def test_bundled_report_bytes(name, digest, tmp_path):
    assert report_sha256(SCENARIOS / f"{name}.yaml", tmp_path) == digest


def test_surface_report_bytes(tmp_path):
    path = tmp_path / "surface.yaml"
    path.write_text(SURFACE_YAML)
    digest = "af3154d1503af7be6490a83b45b282f81b10f4dfab3f2ced903701d34ac990c2"
    assert report_sha256(path, tmp_path) == digest
