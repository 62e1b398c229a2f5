"""One workload's own process: set-up, warm-up, then a closed loop of timed
operations, one at a time, each checked against the oracles.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints nothing; it writes one JSON result to ``--result``.

Modes:
  setup    set up, run and check the warm-up, report when timing would start
  measure  as setup, then time operations for ``--seconds``, with the
           reference kernel (reference.py) timed before and after each
  trace    as setup, then three phases without the kernel: untraced for
           half the time, with spans for the other half, then one cycle
           under tracemalloc
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import tracing
from reference import Reference

HERE = Path(__file__).resolve().parent


class InProcess:
    """``run_scenario`` in this process.

    The mc workloads load their one scenario during set-up and time
    ``run_scenario`` alone.  One sweep_small operation loads, runs and emits
    two configs, one linear and one surface, so every operation does the
    same mix of work.
    """

    def __init__(self, inputs: dict):
        from attrisk import scenario
        self.scenario = scenario
        self.ops = inputs["ops"]
        self.group = inputs["inputs_per_op"]
        self.cycle = len(self.ops) // self.group
        self.configs = None if self.group > 1 else [
            scenario.load_scenario(op["path"], op["overrides"]) for op in self.ops]

    def _indices(self, i: int) -> range:
        start = (i % self.cycle) * self.group
        return range(start, start + self.group)

    def timed(self, i: int):
        sc = self.scenario
        if self.configs is not None:
            return sc.run_scenario(self.configs[i % self.cycle])
        return [sc.emit_report(sc.run_scenario(sc.load_scenario(self.ops[k]["path"],
                                                                self.ops[k]["overrides"])),
                               "json")
                for k in self._indices(i)]

    def outputs(self, i: int, result) -> list[tuple[int, bytes]]:
        if self.configs is not None:
            return [(i % self.cycle, self.scenario.emit_report(result, "json"))]
        return list(zip(self._indices(i), result))

    def check(self, k: int, blob: bytes) -> list[str]:
        return checks.report_json(blob, self.ops[k]["expect"])


class Cli:
    """One ``python -m attrisk.cli`` subprocess per operation.

    When ``trace_dir`` is set, the subprocess runs cli_entry.py instead,
    which installs the span wrappers and writes the spans to trace_dir.
    """

    def __init__(self, inputs: dict):
        self.ops = inputs["ops"]
        self.cycle = len(self.ops)
        self.trace_dir: Path | None = None
        self.track_memory = False

    def timed(self, i: int):
        argv = self.ops[i % self.cycle]["argv"]
        if self.trace_dir is None:
            return subprocess.run([sys.executable, "-m", "attrisk.cli", *argv],
                                  capture_output=True, check=False)
        env = dict(os.environ, BENCH_TRACE_OUT=str(self.trace_dir / f"op{i}.json"),
                   BENCH_TRACE_OP=str(i), BENCH_TRACEMALLOC="1" if self.track_memory else "0")
        return subprocess.run([sys.executable, str(HERE / "cli_entry.py"), *argv],
                              capture_output=True, check=False, env=env)

    def outputs(self, i: int, proc) -> list[tuple[int, bytes]]:
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return [(i % self.cycle, proc.stdout)]

    def check(self, k: int, blob: bytes) -> list[str]:
        op = self.ops[k]
        return checks.CLI_CHECKS[op["key"]](blob, op["expect"])


class Loop:
    """Attempts, failures, latencies and report hashes of a run of operations."""

    def __init__(self, runner):
        self.runner = runner
        #: An installed in-process tracer records spans inside timed calls only.
        self.tracer: tracing.Tracer | None = None
        #: When set, its kernel is timed after every timed operation.
        self.kernel: Reference | None = None
        self.keys = [op["key"] for op in runner.ops]
        self.reference: dict[str, str] = {}
        self.hashes: dict[str, list[str]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _timed(self, i: int):
        if self.tracer is None:
            return self.runner.timed(i)
        self.tracer.op, self.tracer.active = i, True
        try:
            return self.runner.timed(i)
        finally:
            self.tracer.active = False

    def one(self, i: int) -> float:
        """Run, time and check operation i; return its latency in seconds."""
        problems = []
        start = time.perf_counter()
        try:
            result = self._timed(i)
            latency = time.perf_counter() - start
            outputs = self.runner.outputs(i, result)
            del result
        except Exception as exc:  # a failed operation is counted, not fatal
            latency = time.perf_counter() - start
            outputs, problems = [], [f"{type(exc).__name__}: {exc}"]
        for k, blob in outputs:
            key = self.keys[k]
            try:
                problems += [f"{key}: {p}" for p in self.runner.check(k, blob)]
            except Exception as exc:  # an unreadable report fails its check
                problems.append(f"{key}: {type(exc).__name__}: {exc}")
            digest = hashlib.sha256(blob).hexdigest()
            if digest not in self.hashes.setdefault(key, []):
                self.hashes[key].append(digest)
            if self.reference.setdefault(key, digest) != digest:
                problems.append(f"{key}: bytes differ from its first output in this run")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {'; '.join(problems)[:500]}")
        return latency

    def timed_run(self, first: int, seconds: float, whole_cycles=False) -> dict:
        """Closed loop from operation ``first`` until ``seconds`` have passed,
        and with ``whole_cycles`` until every input has run equally often.

        With a reference kernel, ``reference_s`` holds its time before the
        first operation and after each one, and ``wall_s`` and ``cpu_s``
        leave out those pauses.
        """
        latencies, reference = [], []
        if self.kernel is not None:
            reference.append(self.kernel.time())  # the one before the first operation
        paused = 0.0
        cpu0, t0 = os.times(), time.monotonic()
        i = first
        while True:
            latencies.append(self.one(i))
            i += 1
            if self.kernel is not None:
                pause = time.monotonic()
                reference.append(self.kernel.time())
                paused += time.monotonic() - pause
            if time.monotonic() - t0 >= seconds and not (
                    whole_cycles and (i - first) % self.runner.cycle):
                break
        wall = time.monotonic() - t0 - paused
        cpu1 = os.times()
        cpu = sum(cpu1[:4]) - sum(cpu0[:4])
        return {"latencies_s": latencies, "reference_s": reference, "wall_s": wall,
                "cpu_s": cpu, "next": i}


def _result(loop: Loop, **extra) -> dict:
    return dict(extra, attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
                hashes=loop.hashes)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    import attrisk
    import attrisk.uq

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    cli = inputs["workload"] == "cli_linear"
    runner = Cli(inputs) if cli else InProcess(inputs)
    loop = Loop(runner)
    loop.one(0)  # the untimed warm-up, checked like every operation
    t_first = time.monotonic()
    about = {"attrisk_file": attrisk.__file__,
             "chunk_size": getattr(attrisk.uq, "CHUNK_SIZE", None), "t_first": t_first}

    if args.mode == "setup":
        result = _result(loop, **about)
    elif args.mode == "measure":
        loop.kernel = Reference(inputs["reference"]["kind"], inputs["reference"]["size"])
        try:
            run = loop.timed_run(1, args.seconds)
            # Before the helper ends, so that RUSAGE_CHILDREN holds CLI runs only.
            who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            maxrss_kib = resource.getrusage(who).ru_maxrss
        finally:
            loop.kernel.close()
        result = _result(loop, **about, **run, maxrss_kib=maxrss_kib)
    else:
        result = _result(loop, **about, **trace(runner, loop, 1, args))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def trace(runner, loop: Loop, first: int, args) -> dict:
    untraced = loop.timed_run(first, args.seconds / 2)
    trace_dir = Path(args.trace_dir)
    tracer = tracing.Tracer()
    if isinstance(runner, Cli):
        runner.trace_dir = trace_dir / "spans"
        runner.trace_dir.mkdir()
        traced = loop.timed_run(untraced["next"], args.seconds / 2, whole_cycles=True)
        dumps = [json.loads(p.read_text()) for p in sorted(runner.trace_dir.glob("op*.json"))]
        spans, counts = tracing.merge(dumps)
        missing = sorted({m for d in dumps for m in d["missing"]})
        runner.trace_dir = trace_dir / "memory"
        runner.trace_dir.mkdir()
        runner.track_memory = True
        for i in range(traced["next"], traced["next"] + runner.cycle):
            loop.one(i)
        memory_spans, _ = tracing.merge(
            [json.loads(p.read_text()) for p in sorted(runner.trace_dir.glob("op*.json"))])
    else:
        tracer.install()
        loop.tracer = tracer
        traced = loop.timed_run(untraced["next"], args.seconds / 2, whole_cycles=True)
        spans, counts, missing = tracer.spans, tracer.counts, tracer.missing
        tracer.reset()
        tracer.track_memory = True
        tracemalloc.start()
        try:
            for i in range(traced["next"], traced["next"] + runner.cycle):
                loop.one(i)
        finally:
            tracemalloc.stop()
        memory_spans = tracer.spans
    spans_path = trace_dir / "spans.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "peak_alloc_bytes"],
                   "spans": spans}, fh)
    peaks = {name: row["peak_alloc_bytes"]
             for name, row in tracing.aggregate(memory_spans).items()}
    return {"untraced": untraced, "traced": traced, "table": tracing.aggregate(spans),
            "counts": dict(counts), "peaks": peaks, "missing": missing,
            "spans_file": str(spans_path)}


if __name__ == "__main__":
    sys.exit(main())
