"""Span wrappers installed from the benchmark around attrisk's public functions.

Nothing under ``src/`` is edited: each wrapper replaces a function at every
name a caller looks it up by.  ``scenario.py`` and ``cli.py`` import
``propagate_attribution``, ``histogram`` and the rest by name, so patching only
the defining module would miss those calls; methods are replaced on their
class.  Spans are kept in memory as ``[name, start, end, parent, op, peak]``
records and written out once, at the end of the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter

#: (module, attribute) pairs wrapped in spans; a dotted attribute is a method.
#: The span name is the module's short name joined to the attribute.
SPAN_TARGETS = (
    ("attrisk.cli", "main"),
    ("attrisk.scenario", "load_scenario"),
    ("attrisk.scenario", "run_scenario"),
    ("attrisk.scenario", "emit_report"),
    ("attrisk.scenario", "ScenarioConfig.digest"),
    ("attrisk.engine", "propagate_attribution"),
    ("attrisk.engine", "anthropogenic_exceedance_fraction"),
    ("attrisk.engine", "integral_attribution"),
    ("attrisk.engine", "DoseResponse.interpolant"),
    ("attrisk.uq", "RandomStream.standard_normal"),
    ("attrisk.uq", "EmpiricalDistribution.from_samples"),
    ("attrisk.uq", "histogram"),
    ("attrisk.uq", "summarize"),
    ("attrisk.uq", "tail_probability"),
    ("attrisk.uq", "percentile"),
)

NAME, START, END, PARENT, OP, PEAK = range(6)


class Tracer:
    """Records nested spans and counters for one process while ``active``.

    With ``track_memory`` each span also records its tracemalloc peak above
    the memory traced at its start.  Enclosing spans keep a running peak, so
    a child's ``reset_peak`` does not hide the parent's own peak.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._running_peak: dict[int, int] = {}
        self._start_mem: dict[int, int] = {}

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, -1]
            self.spans.append(rec)
            self._stack.append(sid)
            if self.track_memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent >= 0:
                    self._running_peak[parent] = max(self._running_peak[parent], peak)
                tracemalloc.reset_peak()
                self._start_mem[sid] = current
                self._running_peak[sid] = current
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
                if self.track_memory:
                    peak = max(self._running_peak.pop(sid), tracemalloc.get_traced_memory()[1])
                    rec[PEAK] = peak - self._start_mem.pop(sid)
                    if parent >= 0:
                        self._running_peak[parent] = max(self._running_peak[parent], peak)
        return traced

    def install(self):
        """Wrap every SPAN_TARGETS entry and the two draw counters.

        A target the code under test no longer has is listed in ``missing``
        rather than failing the run, so its metrics read as zero calls.
        """
        for module in ("attrisk", "attrisk.uq", "attrisk.engine", "attrisk.scenario", "attrisk.cli"):
            importlib.import_module(module)
        modules = [m for k, m in sys.modules.items() if k == "attrisk" or k.startswith("attrisk.")]
        for module_name, attr in SPAN_TARGETS:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        self._install_counters()

    def _install_counters(self):
        uq = sys.modules["attrisk.uq"]
        stream_cls = getattr(uq, "RandomStream", None)
        draw = stream_cls.__dict__.get("standard_normal") if stream_cls is not None else None
        if draw is not None:
            @functools.wraps(draw)
            def counted_draw(stream, *args, **kwargs):
                if self.active:
                    self.counts["uq.normals_drawn"] += int(args[0] if args else kwargs["n"])
                return draw(stream, *args, **kwargs)
            stream_cls.standard_normal = counted_draw
        philox = getattr(uq, "Philox", None)
        if philox is not None:
            def counted_philox(*args, **kwargs):
                if self.active:
                    self.counts["uq.philox_chunks"] += 1
                return philox(*args, **kwargs)
            uq.Philox = counted_philox

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "missing": self.missing}, fh)


def merge(dumps: list[dict]) -> tuple[list[list], Counter]:
    """Concatenate span dumps from several processes, re-basing parent ids."""
    spans: list[list] = []
    counts: Counter = Counter()
    for dump in dumps:
        base = len(spans)
        for rec in dump["spans"]:
            rec = list(rec)
            if rec[PARENT] >= 0:
                rec[PARENT] += base
            spans.append(rec)
        counts.update(dump["counts"])
    return spans, counts


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the largest peak.

    Self time is a span's duration minus the durations of its direct
    children; spans come from one thread per process, so children nest
    inside their parent and never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    table: dict[str, dict] = {}
    for sid, rec in enumerate(spans):
        row = table.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "peak_alloc_bytes": -1})
        duration = rec[END] - rec[START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[sid]
        row["peak_alloc_bytes"] = max(row["peak_alloc_bytes"], rec[PEAK])
    return table
