"""Byte-exact guard on the reports of fixed scenarios at default settings.

The report bytes follow from (config, seed, n) and from numpy: its Philox
Generator stream, which NEP 19 does not fix across numpy versions, and the
reductions a report uses. So the digests run wherever numpy's fingerprints
are the ones they were recorded with, whatever its version, and skip
elsewhere, naming the numpy version and the fingerprint that differs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import attrisk
from attrisk.cli import main

SCENARIOS = Path(attrisk.__file__).parent / "scenarios"

#: The SHA-256 fingerprints of numpy that the digests below were recorded
#: with (numpy 2.4.6): each is one of the values listed. np.sort's order of
#: mixed signed zeros follows the SIMD sort numpy picks for the CPU; every
#: digest passed under each of the three x86-64 orders listed (AVX-512, AVX2
#: and neither).
FINGERPRINTS = {
    "stream 1": {"ceb6f620dae0d48448e76527271f4845a5a2641d66e723cca587dd83b851a32b"},
    "stream 2": {"4d6fa3cc155c60414ef418d69826dd885dfc1b51a99739647e44b55fc562e96e"},
    "mean": {"7da4c9f5221515d005aaf82e0fad23136e5d05ae434cfbdd805a105b4e3211b2"},
    "signed-zero sort": {"d0b2b72996b301b96571c986c96a207b94c510e3edb8464478a734d3b5b6b7ac",
                         "77e2dd9b87773316687711682ff70e855c1c03b6a89841501f5ea7d942692c25",
                         "17314454b07f090a9e6abb9a78cd8839b5e7a6cce65787e671474e2cdece0769"},
}


def fingerprints() -> dict[str, str]:
    """SHA-256 of the first 4,096 standard normals of the Philox chunk
    (label, 0) of seed 0, for both stream labels, drawn with numpy directly
    (so a keying bug in attrisk fails the digests, where it would skip them
    through attrisk's own sampler); of the mean of a fixed array; and of
    np.sort's order of mixed +0.0 and -0.0."""
    prints = {}
    for label in (1, 2):  # BETA_STREAM and DPRIME_STREAM, as recorded
        seeds = np.random.SeedSequence(0, spawn_key=(label, 0))
        normals = np.random.Generator(np.random.Philox(seeds)).standard_normal(4096)
        prints[f"stream {label}"] = hashlib.sha256(normals.tobytes()).hexdigest()
    i = np.arange(100_003)
    mean = ((i % 97 - 48) / 7.0 ** (i % 5)).mean()
    prints["mean"] = hashlib.sha256(mean.tobytes()).hexdigest()
    zeros = np.sort(np.resize([0.0, -0.0, -0.0, 1.0, 0.0, -1.0, -0.0], 4099))
    prints["signed-zero sort"] = hashlib.sha256(np.signbit(zeros).tobytes()).hexdigest()
    return prints


def stream_mismatch() -> str | None:
    """Why the digests cannot run on this numpy, or None if they can."""
    differ = [name for name, value in fingerprints().items() if value not in FINGERPRINTS[name]]
    if differ:
        return (f"golden digests were recorded on another numpy stream: numpy {np.__version__}, "
                f"differing fingerprint: {', '.join(differ)}")
    return None


SKIP = stream_mismatch()
recorded_stream = pytest.mark.skipif(SKIP is not None, reason=str(SKIP))


def test_a_changed_stream_skips_the_digests(monkeypatch):
    class Negated(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            return -super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Negated)
    reason = stream_mismatch()
    assert reason is not None
    assert f"numpy {np.__version__}" in reason
    assert reason.endswith("differing fingerprint: stream 1, stream 2")


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


def report_sha256(path, tmp_path, fmt="json", *extra):
    out = tmp_path / f"report.{fmt}"
    assert main(["report", str(path), "--format", fmt, "--out", str(out), *extra]) == 0
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


@recorded_stream
@pytest.mark.parametrize("name, fmt, digest", [
    pytest.param(name, fmt, digest,
                 id=f"{name}-{digest}" if fmt == "json" else f"{name}-{fmt}-{digest}")
    for name, fmt, digest in CASES])
def test_bundled_report_bytes(name, fmt, digest, tmp_path):
    assert report_sha256(scenario_path(name, tmp_path), tmp_path, fmt) == digest


@recorded_stream
def test_surface_report_bytes(tmp_path):
    digest = "af3154d1503af7be6490a83b45b282f81b10f4dfab3f2ced903701d34ac990c2"
    assert report_sha256(scenario_path("golden_surface", tmp_path), tmp_path) == digest


#: A point mass on either input, by its dispersion set to 0.
POINT_MASS_CASES = [
    ("syria_2010", "dose_response.dispersion=0",
     "729734a977199b7e1fcffa11f93217da52ed79445a184375783ad9cd558bd6f4"),
    ("syria_2010", "anthropogenic.dispersion=0",
     "74352d6bc029071ac5c3b3229710a6b6a7383f173172b7832ba2b96f5848da4c"),
    ("golden_surface", "anthropogenic.dispersion=0",
     "1114036683d33124d41ae833b4a35a9f83b5ca2f89273286a4eb6217a453873c"),
]


@recorded_stream
@pytest.mark.parametrize("name, override, digest", POINT_MASS_CASES,
                         ids=[f"{name}-{override}" for name, override, _ in POINT_MASS_CASES])
def test_point_mass_report_bytes(name, override, digest, tmp_path):
    path = scenario_path(name, tmp_path)
    assert report_sha256(path, tmp_path, "json", "--set", override) == digest


#: n = 20000 draws, one Philox chunk: a run of one chunk is one task, on the
#: calling thread, where the cases above draw many chunks.
ONE_CHUNK_CASES = [
    ("syria_2010", (), "23ff30e8beb8637a59e94d0b1c4ef3a1b818f4714e56acef61730484913a14fb"),
    ("golden_surface", (), "dc71001ec60ce9023b9e05e8da60bf8da4a6cbbfb306a0542a59e4b9cf2d55b8"),
    ("syria_2010", ("--set", "dose_response.dispersion=0"),
     "9f4775153a200dfe511c9062e93a19f5931a4709a45c998f78d51e018f21b8fe"),
]


@recorded_stream
@pytest.mark.parametrize("name, extra, digest", ONE_CHUNK_CASES,
                         ids=["-".join((name, *extra[1:])) for name, extra, _ in ONE_CHUNK_CASES])
def test_one_chunk_report_bytes(name, extra, digest, tmp_path):
    path = scenario_path(name, tmp_path)
    assert report_sha256(path, tmp_path, "json", "--samples", "20000", *extra) == digest


PROPAGATE_CASES = [
    ("points", "--beta 3.54 --dprime 1.08",
     "b1e4875a64cfd836a274eb807e0deb5afcbfe5dba542049ab07cdbddc8621e17"),
    ("normals", "--beta 3.54 --beta-sd 1.2 --dprime 1.08 --dprime-sd 0.37",
     "2b529cb4a1ac8303c8c920220141dea6e0b4c850bfb5e0c894b043f863b82f65"),
    ("point-beta", "--beta 3.54 --dprime 1.08 --dprime-sd 0.37 --seed 7 --samples 200003",
     "261101e6c07222ccb1bd6f26f0c07dc3e3c937223bf01066dcf7741f419f3595"),
    ("point-dprime", "--beta 3.54 --beta-sd 1.2 --dprime 1.08 --seed 7 --samples 200003",
     "e76864e436582ba1f260c48c6b7e3db5131d53d45679070044ec41540cd83d2b"),
    ("normals-short", "--beta 3.54 --beta-sd 1.2 --dprime 1.08 --dprime-sd 0.37 "
     "--seed 7 --samples 200003",
     "8aeac978c9bbfb601d45d398b397d6e844a5036341ccf80408dc67a46ccbd7f4"),
]


@recorded_stream
@pytest.mark.parametrize("flags, digest", [pytest.param(flags, digest, id=name)
                                           for name, flags, digest in PROPAGATE_CASES])
def test_propagate_stdout(flags, digest, capsys, monkeypatch):
    monkeypatch.delenv("ATTRISK_SEED", raising=False)
    assert main(["propagate", *flags.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@recorded_stream
def test_selftest_stdout(capsys, monkeypatch):
    # Every check's name, value and target text, at the default seed and n.
    digest = "598f24b51f3fcf82e0ab10f236f3da2689d3404d84e57e47c7393f6c67112cfd"
    monkeypatch.delenv("ATTRISK_SEED", raising=False)
    assert main(["selftest"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
