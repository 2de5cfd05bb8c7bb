"""Span tracer that wraps wavepower's public functions from outside.

A span is (name, start, end, parent index) and lives in memory until
`dump`. Names are "<module>.<function>" for the library and
"cli.<stage>" for the CLI stage commands. Counters record the exact
amount of work at the same boundaries (rows, samples, evaluations), so
per-row and per-call ratios are measured where the work happens.

Only module attributes are swapped, so nothing inside `wavepower`
changes; `uninstall` puts every original back.
"""

import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import wavepower
from wavepower import assessment, cli, data_io, gwo, mechanics, spectral

LIBRARY_MODULES = (data_io, spectral, mechanics, gwo, assessment)
# every namespace that may hold a library function under its own name
NAMESPACES = LIBRARY_MODULES + (cli, wavepower)

WRITERS = {"write_catalog", "write_sea_states", "write_elevation",
           "write_results", "write_zone_shares"}
LOADERS = {"load_catalog", "load_sea_states", "load_elevation"}


def _rows(obj):
    samples = getattr(obj, "samples", None)
    return int(samples.size) if samples is not None else len(obj)


def _count(name, bound, result, counts, span):
    """Add the exact work of one finished call to `counts`."""
    short = name.split(".", 1)[1]
    if short in WRITERS:
        rows = bound.arguments[next(iter(bound.arguments))]
        counts["data_io.rows_written"] += _rows(rows)
        counts["data_io.bytes_written"] += os.path.getsize(
            bound.arguments["path"])
    elif short in LOADERS:
        counts["data_io.rows_read"] += _rows(result)
    elif name == "spectral.parametric_power":
        counts["spectral.samples"] += int(np.size(bound.arguments["Hs"]))
    elif name == "spectral.synthesize_record":
        counts["spectral.samples"] += result.samples.size
    elif name == "spectral.estimate_spectrum":
        counts["spectral.samples"] += bound.arguments["record"].samples.size
    elif name == "mechanics.regular_wave_power":
        if np.ndim(result):
            span[0] = "mechanics.regular_wave_power.batch"
            counts["mechanics.grid_points"] += int(np.size(result))
        else:
            counts["mechanics.regular_wave_power.calls"] += 1
    elif name == "gwo.gwo_maximize":
        counts["gwo.evaluations"] += result.evaluations


# functions whose counter needs the call's arguments by name
_NEEDS_ARGS = ({f"data_io.{n}" for n in WRITERS}
               | {"spectral.parametric_power", "spectral.estimate_spectrum"})


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []
        self._swapped = []       # (namespace, key, original)

    def wrap(self, name, fn):
        sig = inspect.signature(fn) if name in _NEEDS_ARGS else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            bound = sig.bind(*args, **kwargs) if sig else None
            _count(name, bound, result, counts, span)
            return result

        return traced

    def _swap(self, namespace, key, value):
        self._swapped.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        """Wrap every public library function and the CLI stage commands."""
        wrapped = {}
        for mod in LIBRARY_MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            for key, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not key.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{key}", obj)
        # rebind names imported elsewhere (e.g. cli.regular_wave_power)
        for mod in NAMESPACES:
            ns = vars(mod)
            for key, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._swap(ns, key, wrapped[obj])
        for stage, fn in list(cli.COMMANDS.items()):
            self._swap(cli.COMMANDS, stage, self.wrap(f"cli.{stage}", fn))

    def uninstall(self):
        while self._swapped:
            ns, key, original = self._swapped.pop()
            ns[key] = original

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans):
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the time its direct children
    cover, so summing self time over a module's names gives the time
    spent in that module and not in the layers it called.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), covered in zip(spans, child_time):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return out


def merge(traces):
    """Sum the summaries and counters of several traced processes."""
    total = defaultdict(lambda: [0, 0.0, 0.0])
    counts = Counter()
    for spans, cnt in traces:
        for name, row in summarize(spans).items():
            acc = total[name]
            for i in range(3):
                acc[i] += row[i]
        counts.update(cnt)
    return total, counts


def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["spans"], Counter(doc["counts"])
