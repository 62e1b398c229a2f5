"""Traced stand-in for ``python -m attrisk.cli``.

Installs the span wrappers, calls ``attrisk.cli.main(argv)`` and writes the
spans to ``$BENCH_TRACE_OUT``.  ``BENCH_TRACE_OP`` is the operation id the
spans carry; ``BENCH_TRACEMALLOC=1`` also records per-span peak allocation.

    BENCH_TRACE_OUT=spans.json python bench/cli_entry.py selftest --seed 7
"""

import os
import sys
import tracemalloc

import tracing


def main() -> int:
    tracer = tracing.Tracer(track_memory=os.environ.get("BENCH_TRACEMALLOC") == "1")
    tracer.op = int(os.environ.get("BENCH_TRACE_OP", "0"))
    tracer.install()
    tracer.active = True
    import attrisk.cli

    if tracer.track_memory:
        tracemalloc.start()
    try:
        code = attrisk.cli.main(sys.argv[1:])
    finally:
        tracemalloc.stop()
        tracer.dump(os.environ["BENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
