"""Workload inputs generated from the benchmark seed.

Each workload gets scenario files, CLI argument lists and oracle
expectations, all a pure function of ``(workload, seed)``.  The program under
test only ever sees the generated files and arguments.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import yaml

import oracles

WORKLOADS = ("cli_linear", "mc_linear_1e7", "mc_surface_1e6", "sweep_small")

CLI_SAMPLES = 1_000_000          # the CLI default; no command passes --samples
MC_LINEAR_SAMPLES = 10_000_000
MC_SURFACE_SAMPLES = 1_000_000
SWEEP_SAMPLES = 20_000           # below one 65536-draw Philox chunk
SWEEP_CONFIGS = 16               # half linear, half surface, alternating
SURFACE_KNOTS = 6

#: The reference kernel timed around each operation (reference.py), the
#: closest to the workload's own work at a tenth to a quarter of its time,
#: and the kernel's typical time on the machine the benchmark was defined on
#: (2 vCPUs of a shared Intel Xeon host, numpy 2.4).  Timed metrics are
#: rescaled to that speed; nominal_s stays fixed so that commits compare on
#: the same scale.
REFERENCE = {
    "cli_linear": {"kind": "spawn", "size": 0, "nominal_s": 0.2},
    "mc_linear_1e7": {"kind": "pipeline", "size": 1_500_000, "nominal_s": 0.13},
    "mc_surface_1e6": {"kind": "pipeline", "size": 100_000, "nominal_s": 0.0085},
    "sweep_small": {"kind": "small", "size": 2_000, "nominal_s": 0.003},
}

# D0 + D' stays within total +- DOMAIN_SIGMAS * sd; P(|Z| > 8) * 1e6 ~ 1e-9, so
# no surface draw leaves the knot domain and extrapolation never runs.
DOMAIN_SIGMAS = 8.0

SYRIA_2010 = {
    "name": "syria_2010",
    "year": 2010,
    "anomaly_total": 2.48,
    "anthropogenic": {"value": 1.08, "dispersion": 0.37},
    "dose_response": {"kind": "linear", "value": 3.54, "dispersion": 1.2},
}
SYRIA_2010_TEMPERATURE = {
    "name": "syria_2010_temperature_illustrative",
    "year": 2010,
    "anomaly_total": 2.48,
    "anthropogenic": {"value": 1.08, "dispersion": 0.37},
    "dose_response": {"kind": "linear", "value": 11.33, "dispersion": 2.96},
}


def derive_seed(*parts) -> int:
    """A 32-bit program seed from the benchmark seed and labels."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _r(x: float) -> float:
    return round(x, 6)


def linear_scenario(rng: random.Random, name: str) -> dict:
    beta = rng.uniform(1.0, 12.0)
    mu = rng.uniform(0.6, 1.6)
    return {
        "name": name,
        "year": rng.randrange(1950, 2025),
        "anomaly_total": _r(mu + rng.uniform(0.5, 2.0)),
        "anthropogenic": {"value": _r(mu), "dispersion": _r(rng.uniform(0.15, 0.4))},
        "dose_response": {"kind": "linear", "value": _r(beta),
                          "dispersion": _r(beta * rng.uniform(0.1, 0.4))},
    }


def surface_scenario(rng: random.Random, name: str) -> dict:
    """Monotone knots from (0, 1) that cover every D0 + D' draw."""
    mu = _r(rng.uniform(0.6, 1.6))
    sd = _r(rng.uniform(0.15, 0.35))
    total = _r(max(mu + 0.5, DOMAIN_SIGMAS * sd + 0.3) + rng.uniform(0.0, 1.0))
    last = total + DOMAIN_SIGMAS * sd + rng.uniform(0.2, 1.0)
    gaps = [rng.uniform(0.5, 1.5) for _ in range(SURFACE_KNOTS - 1)]
    ds, acc = [0.0], 0.0
    for g in gaps:
        acc += g
        ds.append(_r(last * acc / sum(gaps)))
    rrs = [1.0]
    for _ in gaps:
        rrs.append(_r(rrs[-1] + rng.uniform(0.02, 0.35)))
    return {
        "name": name,
        "year": rng.randrange(1950, 2025),
        "anomaly_total": total,
        "anthropogenic": {"value": mu, "dispersion": sd},
        "dose_response": {"kind": "surface", "knots": [[d, r] for d, r in zip(ds, rrs)]},
    }


def _normal_inputs(scenario: dict) -> int:
    return 1 if scenario["dose_response"]["kind"] == "surface" else 2


def _write(workdir: Path, filename: str, scenario: dict) -> str:
    path = workdir / filename
    path.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's scenario files into workdir; return its inputs.

    ``ops`` is the cycle of inputs; each names a scenario path (or CLI
    arguments), the oracle expectations, and ``normal_inputs``: how many
    normally distributed inputs each Monte Carlo sample needs.  One timed
    operation covers ``inputs_per_op`` consecutive inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_linear":
        program_seed = derive_seed(workload, seed)
        syria = _write(workdir, "syria_2010.yaml", SYRIA_2010)
        temperature = _write(workdir, "syria_2010_temperature_illustrative.yaml",
                             SYRIA_2010_TEMPERATURE)
        syria_exp = oracles.expectations(SYRIA_2010, CLI_SAMPLES, program_seed)
        temp_exp = oracles.expectations(SYRIA_2010_TEMPERATURE, CLI_SAMPLES, program_seed)
        seed_args = ["--seed", str(program_seed)]
        # Every command is linear with normal beta and D': two normals per sample.
        ops = [
            {"key": "attribute", "argv": ["attribute", syria, *seed_args], "expect": syria_exp},
            {"key": "report", "argv": ["report", temperature, "--format", "json", *seed_args],
             "expect": temp_exp},
            {"key": "propagate", "argv": ["propagate", "--beta", "3.54", "--beta-sd", "1.2",
                                          "--dprime", "1.08", "--dprime-sd", "0.37", *seed_args],
             "expect": syria_exp},
            {"key": "selftest", "argv": ["selftest", *seed_args], "expect": None},
        ]
        for op in ops:
            op["normal_inputs"] = 2
        return {"workload": workload, "samples": CLI_SAMPLES, "inputs_per_op": 1, "ops": ops,
                "reference": REFERENCE[workload]}
    if workload in ("mc_linear_1e7", "mc_surface_1e6"):
        program_seed = derive_seed(workload, seed)
        if workload == "mc_linear_1e7":
            scenario, n = dict(SYRIA_2010), MC_LINEAR_SAMPLES
        else:
            scenario, n = surface_scenario(rng, "surface_generated"), MC_SURFACE_SAMPLES
        scenario["mc"] = {"seed": program_seed, "samples": n}
        path = _write(workdir, f"{workload}.yaml", scenario)
        op = {"key": scenario["name"], "path": path, "overrides": {},
              "expect": oracles.expectations(scenario, n, program_seed),
              "normal_inputs": _normal_inputs(scenario)}
        return {"workload": workload, "samples": n, "inputs_per_op": 1, "ops": [op],
                "reference": REFERENCE[workload]}
    if workload == "sweep_small":
        ops = []
        for i in range(SWEEP_CONFIGS):
            make = linear_scenario if i % 2 == 0 else surface_scenario
            scenario = make(rng, f"sweep_{i:02d}")
            scenario["mc"] = {"samples": SWEEP_SAMPLES}
            program_seed = derive_seed(workload, seed, i)
            path = _write(workdir, f"sweep_{i:02d}.yaml", scenario)
            ops.append({"key": scenario["name"], "path": path,
                        "overrides": {"mc.seed": program_seed},
                        "expect": oracles.expectations(scenario, SWEEP_SAMPLES, program_seed),
                        "normal_inputs": _normal_inputs(scenario)})
        return {"workload": workload, "samples": SWEEP_SAMPLES, "inputs_per_op": 2, "ops": ops,
                "reference": REFERENCE[workload]}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def save(inputs: dict, workdir: Path) -> str:
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    return str(path)
