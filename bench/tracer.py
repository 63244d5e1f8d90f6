"""In-process tracing of asrrkit's layers, from outside the package.

Wrappers go on the public functions of each module, both where they are
defined and wherever another asrrkit module holds the same function object
under an imported name (``cli`` does ``from .sweepio import ...``).  A
spanned function records (name, start, end, parent span, unit id); a
counted one only bumps counters, which is what per-point inner calls get,
so the tracer stays cheap inside the oracle's loops.  Spans live in memory
until ``dump``.  ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np


# Extra counters take (counts, arguments by parameter name) after the call.

def _count_points(key, param):
    def on_call(counts, a):
        counts[key] += np.size(a[param])
    return on_call


def _count_quadrature(counts, a):
    counts["oracle.quadrature_samples"] += a["samples"]


def _count_scalar(counts, a):
    if np.ndim(a["w"]) == 0:
        counts["resonator.scalar_calls"] += 1


def _sweep_file(values_per_row):
    def on_call(counts, a):
        rows = len(a["sweep"].freqs)
        counts["sweepio.rows"] += rows
        counts["sweepio.values_formatted"] += values_per_row * rows
        counts["sweepio.bytes"] += os.path.getsize(a["path"])
    return on_call


def _small_file(counts, a):
    counts["sweepio.small_files"] += 1
    counts["sweepio.bytes"] += os.path.getsize(a["path"])


# (module, function, span name or None for count-only, extra counting)
TARGETS = [
    ("config", "parse_config_file", "config.parse", None),
    ("cli", "main", "cli.main", None),
    ("resonator", "s_parameters", "resonator.s_parameters",
     _count_points("resonator.points", "freqs")),
    ("resonator", "reflected_impedance", None, _count_scalar),
    ("active", "q_on_nonlinear", "active.q_on_nonlinear", None),
    ("noise", "pm_to_am_gain", "noise.pm_to_am_gain", None),
    ("noise", "flicker_phase_noise", "noise.flicker_phase_noise", None),
    ("design", "synthesize", "design.synthesize", None),
    ("oracle", "sweep_two_port", "oracle.sweep_two_port",
     _count_points("oracle.points", "freqs")),
    ("oracle", "solve_two_port", None, None),
    ("oracle", "solve_linear", None, None),
    ("oracle", "time_avg_gm", "oracle.time_avg_gm", _count_quadrature),
    ("oracle", "brent", None, None),
    ("validate", "run_all", "validate.run_all", None),
    ("sweepio", "write_sweep_csv", "sweepio.write_sweep_csv", _sweep_file(7)),
    ("sweepio", "write_touchstone", "sweepio.write_touchstone", _sweep_file(9)),
    ("sweepio", "write_table_csv", "sweepio.small_write", _small_file),
    ("sweepio", "write_keyvalues", "sweepio.small_write", _small_file),
    ("sweepio", "write_noise_csv", "sweepio.small_write", _small_file),
]


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit id]
        self.counts: dict[str, float] = defaultdict(float)
        self.unit = 0
        self.measure_alloc = False  # tracemalloc around the sweepio writers
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, call_key, span, extra):
        tracer = self
        signature = inspect.signature(fn)

        def count_extra(args, kwargs):
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra(tracer.counts, bound.arguments)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[call_key] += 1
            result = fn(*args, **kwargs)
            count_extra(args, kwargs)
            return result

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer.counts[call_key] += 1
            alloc = tracer.measure_alloc and span.startswith("sweepio.")
            if alloc:
                tracemalloc.start()
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), 0.0, parent, tracer.unit])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
                if alloc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            count_extra(args, kwargs)
            return result

        return counted if span is None else spanned

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "asrrkit" or name.startswith("asrrkit.")]
        for mod_name, fn_name, span, extra in TARGETS:
            original = getattr(sys.modules[f"asrrkit.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}.calls", span, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def span_totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name; self time is a span's
        duration less the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child_time[i]
        return inclusive, own

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
