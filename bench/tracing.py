"""Spans and counts for the traced run.

A span is (name, start, end, parent index), recorded around a call the
benchmark makes into a blrc module, or around a call one blrc module makes
into another through a module global that the traced run has replaced
with a timing wrapper.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus the time covered by
its child spans; the run is single-threaded, so children never overlap.

The untraced run uses the same calls with tracing off: call() then calls
straight through and records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (module, global name) -> span name.  These are the cross-module calls
# the library makes through a module global; the traced run wraps them.
WRAPPED_GLOBALS = (
    ("search", "avg_repair_bandwidth_double", "analysis.double_avg"),
    ("search", "avg_repair_bandwidth_single", "analysis.single_avg"),
    ("search", "assign_coefficients", "code.assign_coefficients"),
    ("search", "validate", "code.validate"),
    ("analysis", "avg_repair_bandwidth_double", "analysis.double_avg"),
    ("analysis", "avg_repair_bandwidth_single", "analysis.single_avg"),
    ("analysis", "decodability_profile", "analysis.decodability"),
    ("analysis", "minimum_distance", "code.minimum_distance"),
    ("refcodes", "build_report", "analysis.build_report"),
)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            children = self._child_time.pop()
            self.spans[idx] = (name, start, end, parent)
            dur = end - start
            self.total[name] += dur
            self.self_time[name] += dur - children
            self.durations[name].append(dur)
            if self._child_time:
                self._child_time[-1] += dur

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap_globals(self, lib) -> None:
        """Replace each cross-module global named in WRAPPED_GLOBALS with
        a wrapper that records a span; double-average calls also count the
        pairs they planned."""
        for module, attr, span in WRAPPED_GLOBALS:
            mod = getattr(lib, module)
            setattr(mod, attr, self._wrapper(span, getattr(mod, attr)))

    def _wrapper(self, name, fn):
        def timed(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if name == "analysis.double_avg":
                self.count("analysis.pairs_planned", out.pairs)
            return out

        timed.__wrapped__ = fn
        return timed

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}))
