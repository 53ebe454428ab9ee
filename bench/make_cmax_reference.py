#!/usr/bin/env python3
"""Write bench/cmax_reference.json: reference maxima of the concurrence for
the cmax probe rows, by a method independent of `max_concurrence`'s search.

Usage (from the repository root):  python3 bench/make_cmax_reference.py

The probe rows are the grid points of figures 7 and 10 that every cmax_scan
pass emits and where the search is known to be hard: omega*z = 1e-2 (figure
7, horizons up to 1.7e7) and omega*L = 0.05 at omega*z = 0.5 (figure 10,
where the sample cap skips the first coherent peak).

Method, per row, for the '10' initial state (c_ge = 0, so k2 <= 0 and the
concurrence is max(0, k1)):
  1. populations from an eigendecomposition of `population_generator`,
     coherent term (2 Im c_as)^2 = exp(-8 a1 t) sin^2(4 d t) in closed form;
  2. a dense uniform scan of [0, W] with W = ln(1e24) / (8 a1), beyond which
     the coherent term is below 1e-24, at 400 samples per
     min(pi/(2|d|), 1/(4 a1));
  3. a geometric scan of [W, H] (H = `default_horizon`), where the
     concurrence depends on the smooth populations alone;
  4. bounded Brent refinement of every sampled local maximum within 1e-3 of
     the best sample;
  5. a check of the winner against `concurrence_x(evolve_closed(...))`, and
     against `max_concurrence(horizon=2000)` where tau_star < 2000.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mirroratoms import (SystemParams, compute_coefficients,  # noqa: E402
                         concurrence_x, default_horizon, evolve_closed,
                         max_concurrence, population_generator,
                         prepare_initial)

OUT = HERE / "cmax_reference.json"

# (figure, axis, axis value, fixed parameters); both variants of each
PROBES = [
    (7, "z_omega", 1e-2, {"a_over_omega": 0.1, "l_omega": 0.4}),
    (7, "z_omega", 1e-2, {"a_over_omega": 1.0, "l_omega": 0.4}),
    (10, "l_omega", 0.05, {"a_over_omega": 0.1, "z_omega": 0.5}),
    (10, "l_omega", 0.05, {"a_over_omega": 1.0, "z_omega": 0.5}),
]

SAMPLES_PER_SCALE = 400
TAIL_SAMPLES = 200_000
CHUNK = 1_000_000
CHECK_HORIZON = 2000.0


def _curve(coeffs, taus):
    """max(0, k1) for the '10' state at each tau."""
    w, v = np.linalg.eig(population_generator(coeffs))
    p0 = prepare_initial("ten").populations
    modes = np.linalg.solve(v, p0)
    pops = (v @ (modes[:, None] * np.exp(np.outer(w, taus)))).real
    osc = np.exp(-8.0 * coeffs.a1 * taus) * np.sin(4.0 * coeffs.d * taus) ** 2
    k1 = (np.sqrt((pops[2] - pops[3]) ** 2 + osc)
          - 2.0 * np.sqrt(np.clip(pops[0] * pops[1], 0.0, None)))
    return np.maximum(k1, 0.0)


def _scan(coeffs, taus):
    """Sampled curve plus the indices of its interior local maxima."""
    values = np.concatenate([_curve(coeffs, taus[i:i + CHUNK])
                             for i in range(0, taus.size, CHUNK)])
    inner = np.nonzero((values[1:-1] >= values[:-2])
                       & (values[1:-1] >= values[2:]))[0] + 1
    return values, inner


def reference_max(coeffs):
    scale = 1.0 / (4.0 * coeffs.a1)
    if coeffs.d != 0.0:
        scale = min(scale, math.pi / (2.0 * abs(coeffs.d)))
    window = math.log(1e24) / (8.0 * coeffs.a1)
    horizon = default_horizon(coeffs, prepare_initial("ten"))
    dense = np.arange(0.0, window, scale / SAMPLES_PER_SCALE)
    parts = [dense]
    if horizon > window:
        parts.append(np.geomspace(window, horizon, TAIL_SAMPLES))
    taus = np.unique(np.concatenate(parts))
    values, inner = _scan(coeffs, taus)

    best = float(values.max())
    candidates = [(float(taus[0]), float(values[0])),
                  (float(taus[-1]), float(values[-1]))]
    for i in inner[values[inner] >= best - 1e-3]:
        lo, hi = float(taus[i - 1]), float(taus[i + 1])
        res = minimize_scalar(lambda t: -_curve(coeffs, np.array([t]))[0],
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12 * max(1.0, hi)})
        candidates.append((float(res.x), float(-res.fun)))
    tau_star, c_max = max(candidates, key=lambda tc: (tc[1], -tc[0]))
    return tau_star, c_max, int(taus.size), horizon, window


def main() -> int:
    rows = []
    for figure, axis, value, fixed in PROBES:
        dims = dict(fixed, **{axis: value})
        params = SystemParams.from_dimensionless(**dims)
        full = compute_coefficients(params)
        for variant, coeffs in (("with_D", full), ("without_D", full.without_d())):
            tau_star, c_max, samples, horizon, window = reference_max(coeffs)
            state = evolve_closed(prepare_initial("ten"), coeffs, [tau_star]).states[0]
            oracle = concurrence_x(state).value
            if abs(oracle - c_max) > 1e-12:
                raise SystemExit(f"closed-form check failed at {dims} {variant}: "
                                 f"{c_max!r} vs concurrence_x {oracle!r}")
            row = {"figure": figure, "axis": axis, "axis_value": value,
                   "fixed": fixed, "variant": variant, "c_max": c_max,
                   "tau_star": tau_star, "samples": samples,
                   "scan_window": window, "horizon": horizon}
            if tau_star < CHECK_HORIZON:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    _, check = max_concurrence(params, horizon=CHECK_HORIZON,
                                               coeffs=coeffs)
                if abs(check - c_max) > 1e-9:
                    raise SystemExit(f"horizon={CHECK_HORIZON:g} check failed at "
                                     f"{dims} {variant}: {c_max!r} vs {check!r}")
                row["check_horizon_2000"] = check
            rows.append(row)
            print(f"fig{figure} {dims} {variant}: c_max={c_max:.9f} "
                  f"tau*={tau_star:.6g} ({samples} samples)")
    doc = {"method": "Per row, " + " ".join(__doc__.split("Method, per row,")[1].split()),
           "generator": "bench/make_cmax_reference.py",
           "rows": rows}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
