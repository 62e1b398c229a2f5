"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over tens of seconds, for all code alike (process CPU time
grows as fast as wall time, so it is not a matter of waiting), and which in
some phases stalls this machine for 10-30 ms at a time.  Wall times of the
same code therefore differ more between runs than the bounds in
BENCHMARK.json allow.  So the worker times one reference kernel before the
first timed operation and after each one, and run.py rescales the
operation times to the speed at which the kernel takes ``nominal_s``
(inputs.REFERENCE holds each workload's kernel and its ``nominal_s``): the
median by the median kernel time around each operation, and the tail,
throughput and set-up, which include the stalls, by the mean kernel time of
the run, which includes them too.

The kernels use only the Python standard library, numpy and PyYAML, never
attrisk, and run in a helper process of their own, so a change to the
program cannot change their speed; what it does to its own operations shows
in full.  Each workload gets the kernel closest to its own work (see
inputs.py): a ``python -c "import numpy, yaml"`` process; two Philox normal
streams, their product, a sort and a histogram; or a YAML parse plus that
pipeline on a small array.

Run as a helper: ``python3 reference.py <kind> <size>`` prints ``ready``,
then answers each line on stdin with the seconds one kernel took.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

YAML_DOC = """\
name: reference
year: 2010
anomaly_total: 2.48
anthropogenic: {value: 1.08, dispersion: 0.37}
dose_response:
  kind: surface
  knots: [[0.0, 1.0], [0.5, 1.1], [1.0, 1.25], [2.0, 1.5], [3.0, 1.8], [4.5, 2.2]]
mc: {seed: 12345, samples: 20000}
"""


def kernel(kind: str, size: int):
    """Return a function that does one unit of the reference work."""
    if kind == "spawn":
        cmd = [sys.executable, "-c", "import numpy, yaml"]
        return lambda: subprocess.run(cmd, check=True, capture_output=True)

    import numpy as np

    def pipeline():
        # The Monte Carlo core in plain numpy: two normal streams, their
        # product, a sort and a histogram.
        rng = np.random.Generator(np.random.Philox(key=20101))
        x = rng.standard_normal(size) * 1.2 + 3.54
        x *= rng.standard_normal(size) * 0.37 + 1.08
        x.sort()
        np.histogram(x, bins=100)

    if kind == "pipeline":
        return pipeline
    if kind == "small":
        import yaml

        def parse_and_pipeline():
            yaml.safe_load(YAML_DOC)
            pipeline()
        return parse_and_pipeline
    raise ValueError(f"unknown reference kernel {kind!r}")


class Reference:
    """The helper process, seen from the worker."""

    def __init__(self, kind: str, size: int):
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # nothing from the checkout under test
        self.proc = subprocess.Popen([sys.executable, __file__, kind, str(size)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"reference helper ({kind}) did not start")

    def time(self) -> float:
        """Run the kernel once in the helper; return its seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve(kind: str, size: int) -> None:
    work = kernel(kind, size)
    work()  # warm-up: page in the arrays and the interpreter paths
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        work()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
