"""The benchmark's workloads as `mirroratoms` command lines.

Each workload runs a fixed figure-preset part and a seeded part. The seeded
part is one `mirroratoms sweep --spec` config per preset figure, with that
figure's axis, grid and quantity, and fixed parameters drawn from the range
the figure's panels span (log-uniform when the range covers more than a
decade). The same seed always gives the same configs.

Why these three workloads:
  rate_grid   figures 2-4 at a dense grid, JSON out: cheap rows, so per-row
              overhead in `compute_coefficients` and `run_sweep` and the
              serialisation dominate; no `max_concurrence` call at all.
  tau_series  figures 5-6 on their oscillation-resolving tau grids, CSV out:
              one `evolve_closed` per tau stamp dominates.
  cmax_scan   figures 7-10 at a sparse grid, JSON out, plus one `cmax` query
              at omega*z = 3e-4 that hangs in the golden-section search and
              ends at the benchmark's deadline: `max_concurrence` dominates,
              including its heavy small-omega*z tail. Every grid contains
              the probe rows of cmax_reference.json.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from mirroratoms import SystemParams, compute_coefficients, default_time_grid, preset


@dataclass(frozen=True)
class Workload:
    figures: tuple
    points: int | None   # --points per axis; None keeps the tau-grid default
    format: str
    cmax_query: tuple = ()


WORKLOADS = {
    "rate_grid": Workload(figures=(2, 3, 4), points=1500, format="json"),
    "tau_series": Workload(figures=(5, 6), points=None, format="csv"),
    "cmax_scan": Workload(figures=(7, 8, 9, 10), points=3, format="json",
                          cmax_query=("--z", "3e-4", "--accel", "0.1", "--l", "0.3")),
}


@dataclass(frozen=True)
class Invocation:
    """One `mirroratoms` command line of a pass. `label` names its span
    (cli.<label>); `rows` is what it emits when it completes; its outputs
    go to `<pass dir>/<out>`."""

    label: str
    argv: tuple
    rows: int
    quantity: str
    out: str


def _draw(values, rng: random.Random) -> float:
    lo, hi = min(values), max(values)
    if lo == hi:
        return lo
    if hi > 10.0 * lo:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return rng.uniform(lo, hi)


def _tau_grid(fixed: dict) -> list:
    """The oscillation-resolving grid the presets use, down to exp(-6) of
    the coherent term."""
    coeffs = compute_coefficients(SystemParams.from_dimensionless(**fixed))
    return [float(t) for t in default_time_grid(coeffs, 6.0 / (4.0 * coeffs.a1))]


def _seeded_config(specs, rng: random.Random) -> dict:
    first = specs[0]
    fixed = {k: _draw([s.fixed[k] for s in specs], rng) for k in sorted(first.fixed)}
    grid = _tau_grid(fixed) if first.axis == "tau" else list(first.grid)
    return {"axis": first.axis, "grid": grid, "fixed": fixed,
            "quantity": first.quantity, "variants": list(first.variants)}


def build(name: str, seed: int, out_root: Path, input_dir: Path) -> list:
    """Write the seeded sweep configs into `input_dir` and return one pass's
    invocations; invocation i writes under `out_root / invocations[i].out`."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    points = [] if wl.points is None else ["--points", str(wl.points)]
    fmt = wl.format
    figure_calls, sweep_calls = [], []
    for fig in wl.figures:
        specs = preset(fig, **({} if wl.points is None else {"points": wl.points}))
        out = f"{len(figure_calls):02d}-fig{fig}"
        figure_calls.append(Invocation(
            f"fig{fig}",
            ("figure", str(fig), "--out", str(out_root / out), "--format", fmt, *points),
            sum(len(s.grid) * len(s.variants) for s in specs), specs[0].quantity, out))

        config = _seeded_config(specs, rng)
        path = input_dir / f"seeded_fig{fig}.json"
        path.write_text(json.dumps(config) + "\n")
        out = f"{len(wl.figures) + len(sweep_calls):02d}-sweep-fig{fig}"
        sweep_calls.append(Invocation(
            "sweep",
            ("sweep", "--spec", str(path), "--format", fmt,
             "--out", str(out_root / out / f"sweep.{fmt}")),
            len(config["grid"]) * len(config["variants"]), config["quantity"], out))
    calls = figure_calls + sweep_calls
    if wl.cmax_query:
        out = f"{len(calls):02d}-cmax"
        calls.append(Invocation(
            "cmax",
            ("cmax", *wl.cmax_query, "--format", "json", "--out", str(out_root / out / "cmax.json")),
            1, "cmax", out))
    return calls
