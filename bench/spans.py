"""Span tracing at the module boundaries of `mirroratoms`, from outside the
program: while installed, the names each module imports from the layer below
(`mirroratoms.sweep.compute_coefficients`, `mirroratoms.concurrence.
default_horizon`, `mirroratoms.cli.emit`, ...) are replaced by wrappers that
record a span per call. The spans of a pass stay in memory; those of the last
traced pass are written out at the end.

A span's self time is its duration minus the durations of the wrapped spans
it directly caused.
"""

from __future__ import annotations

import gzip
import importlib
import warnings
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# module -> {imported name: span name}; the span name's first part is the
# layer the callee belongs to
BOUNDARIES = {
    "mirroratoms.cli": {
        "run_sweep": "sweep.run_sweep",
        "emit": "sweep.emit",
        "render_csv": "sweep.emit",
        "render_json": "sweep.emit",
        "preset": "sweep.preset",
        "compute_coefficients": "correlations.compute_coefficients",
        "generation_rate": "concurrence.generation_rate",
        "max_concurrence": "concurrence.max_concurrence",
        "default_time_grid": "evolution.default_time_grid",
    },
    "mirroratoms.sweep": {
        "compute_coefficients": "correlations.compute_coefficients",
        "generation_rate": "concurrence.generation_rate",
        "max_concurrence": "concurrence.max_concurrence",
        "evolve_closed": "evolution.evolve_closed",
        "default_time_grid": "evolution.default_time_grid",
    },
    "mirroratoms.concurrence": {
        "compute_coefficients": "correlations.compute_coefficients",
        "default_horizon": "evolution.default_horizon",
    },
}


def _byte_count(result) -> int:
    if isinstance(result, str):  # render_csv / render_json
        return len(result.encode())
    return Path(result).stat().st_size  # emit returns the path it wrote


# counters filled from a call's result, keyed by span name
def _count_rows(counts, result):
    counts["sweep.rows"] += len(result.rows)
    counts["sweep.error_rows"] += sum(row.error is not None for row in result.rows)


def _count_bytes(counts, result):
    counts["sweep.emit.bytes"] += _byte_count(result)


def _count_stamps(counts, result):
    counts["evolution.evolve_closed.stamps"] += len(result.times)


def _track_horizon(counts, result):
    counts["evolution.horizon_max"] = max(counts["evolution.horizon_max"], float(result))


_ON_RESULT = {
    "sweep.run_sweep": _count_rows,
    "sweep.emit": _count_bytes,
    "evolution.evolve_closed": _count_stamps,
    "evolution.default_horizon": _track_horizon,
}


class Tracer:
    """Records the spans (name, start, end, parent) and boundary counters
    of one traced pass at a time."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._stack: list = []
        self._saved: list = []
        self._warnings = None
        self._reset()

    def _reset(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_layers(self) -> set:
        return {self.names[self.name_id[s]].split(".")[0] for s in self._stack}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span called `name`."""
        sid = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        hook = _ON_RESULT.get(name)
        if hook is not None:
            hook(self.counts, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _on_warning(self, message, category, *_args, **_kwargs):
        if issubclass(category, RuntimeWarning):
            for layer in self.open_layers():
                self.counts[f"{layer}.warnings"] += 1

    def install(self):
        """Drop the previous pass's spans, wrap the boundary names and start
        counting warnings."""
        self._reset()
        for module_name, names in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for attr, span in names.items():
                fn = getattr(module, attr, None)
                if fn is not None:  # a later refactor may drop an import
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(span, fn))
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning

    def uninstall(self) -> dict:
        """Restore the program and return this pass's per-layer metrics."""
        self._warnings.__exit__(None, None, None)
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return self._pass_metrics()

    def _pass_metrics(self) -> dict:
        child = defaultdict(float)
        for s in range(len(self.start)):
            if self.parent[s] >= 0:
                child[self.parent[s]] += self.end[s] - self.start[s]
        out = defaultdict(float, self.counts)
        for s in range(len(self.start)):
            name = self.names[self.name_id[s]]
            dur = self.end[s] - self.start[s]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += dur - child[s]
            if name.startswith("cli."):
                out["cli.self_s"] += dur - child[s]
        return out

    def write(self, path: Path):
        """Write the spans of the last traced pass as CSV: span id, parent id,
        name, start, end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,name,start,end\n")
            for s in range(len(self.start)):
                fh.write(f"{s},{self.parent[s]},"
                         f"{self.names[self.name_id[s]]},{self.start[s]!r},{self.end[s]!r}\n")
