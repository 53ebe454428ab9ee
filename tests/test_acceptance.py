"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Tolerances are fixed here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from mirroratoms import (SystemParams, compute_coefficients, concurrence_x,
                         evolve_closed, generation_rate, prepare_initial, preset,
                         run_sweep)

from conftest import random_params, random_x_state, steady_state
from oracles import (concurrence_general, evolve_numeric, image_wightman_ft_oracle,
                     to_product_matrix)
import reference as ref

ANCHOR = SystemParams(accel=1.0, z=0.4, l=0.3)


def _report(num, ok, text):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def solver_draws():
    """Ten randomized parameter draws shared by criteria 3 and 4."""
    rng = np.random.default_rng(20240810)
    t0 = time.perf_counter()
    draws = []
    for _ in range(10):
        coeffs = compute_coefficients(random_params(rng))
        num = evolve_numeric(prepare_initial("ten"), coeffs, 20.0, tol=1e-9)
        clo = evolve_closed(prepare_initial("ten"), coeffs, num.times)
        draws.append((coeffs, num, clo))
    return draws, time.perf_counter() - t0


def test_criterion_01_coefficient_anchor():
    compute_coefficients(ANCHOR)  # warm up
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        coeffs = compute_coefficients(ANCHOR)
    per_call = (time.perf_counter() - t0) / reps
    rel = max(abs(getattr(coeffs, n) / ref.FROZEN[n] - 1.0)
              for n in ("a1", "a2", "b1", "b2", "d"))
    _report(1, rel < 1e-3 and per_call < 1e-3,
            f"coefficients within {rel:.2e} of the 60-digit oracle, "
            f"{per_call * 1e6:.1f} us per call")


def test_criterion_02_rate_anchor():
    coeffs = compute_coefficients(ANCHOR)
    rate = generation_rate(coeffs).rate
    rate_no_d = generation_rate(coeffs.without_d()).rate
    err = abs(rate - ref.FROZEN["rate"])
    _report(2, err < 3e-3 and rate_no_d < rate,
            f"rate {rate:.6f} vs oracle {ref.FROZEN['rate']:.6f} "
            f"(|diff| {err:.1e}); without-coupling rate {rate_no_d:.4f} is smaller")


def test_criterion_03_solver_equivalence(solver_draws):
    draws, elapsed = solver_draws
    worst = 0.0
    for _, num, clo in draws:
        for a, b in zip(num.states, clo.states):
            worst = max(worst, np.max(np.abs(a.populations - b.populations)),
                        abs(a.c_as - b.c_as), abs(a.c_ge - b.c_ge))
    _report(3, worst < 1e-8 and elapsed < 5.0,
            f"closed vs numeric max-norm gap {worst:.2e} over 10 draws "
            f"({elapsed:.2f} s)")


def test_criterion_04_conservation_suite(solver_draws):
    draws, _ = solver_draws
    states = [s for _, num, clo in draws for s in (*num.states, *clo.states)]
    for z in (0.4, 2.0, 20.0):
        coeffs = compute_coefficients(SystemParams(1.0, z=z, l=0.3))
        states.append(steady_state(coeffs))
    trace_drift = max(abs(s.trace - 1.0) for s in states)
    breach = max(max(abs(s.c_as) ** 2 - s.p_aa * s.p_ss,
                     abs(s.c_ge) ** 2 - s.p_gg * s.p_ee,
                     -min(s.p_gg, s.p_ee, s.p_aa, s.p_ss), 0.0) for s in states)
    _report(4, trace_drift < 1e-12 and breach < 1e-9,
            f"trace drift {trace_drift:.2e}, positivity breach {breach:.2e} "
            f"over {len(states)} states")


def test_criterion_05_coherence_law():
    # check the exponential coherence law on both solver paths; the numeric
    # integrator is the non-trivial one, the closed path wires the law in
    coeffs = compute_coefficients(ANCHOR)
    num = evolve_numeric(prepare_initial("ten"), coeffs, 20.0, tol=1e-11)
    picks = np.linspace(1, len(num.times) - 1, 100).astype(int)
    closed = evolve_closed(prepare_initial("ten"), coeffs, num.times[picks])
    worst_mag, worst_arg = 0.0, 0.0
    for i, s_closed in zip(picks, closed.states):
        t = num.times[i]
        expected = 0.5 * np.exp(-4.0 * (coeffs.a1 + 1j * coeffs.d) * t)
        for s in (num.states[i], s_closed):
            worst_mag = max(worst_mag, abs(abs(s.c_as) - abs(expected)))
            worst_arg = max(worst_arg, abs(np.angle(s.c_as * np.conj(expected))))
    _report(5, worst_mag < 1e-10 and worst_arg < 1e-10,
            f"|c_as| error {worst_mag:.2e}, phase error {worst_arg:.2e} "
            f"at 100 sampled times on both solvers")


def test_criterion_06_unruh_thermal_steady_state():
    x = math.exp(-2.0 * math.pi)  # excited/ground ratio at omega = accel = 1
    gibbs = np.array([1.0, x * x, x, x]) / (1.0 + x) ** 2
    worst = 0.0
    for z in (0.4, 2.0, 20.0):
        for l in (0.3, 3.0, 30.0):
            coeffs = compute_coefficients(SystemParams(1.0, z=z, l=l))
            for c in (coeffs, coeffs.without_d()):
                s = steady_state(c)
                worst = max(worst, np.max(np.abs(s.populations - gibbs)))
    _report(6, worst < 1e-10,
            f"steady state matches the product Gibbs form to {worst:.2e} "
            f"across the 3x3x2 grid, independent of z, L, d")


def test_criterion_07_concurrence_oracle_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = random_x_state(rng)
        worst = max(worst, abs(concurrence_x(s).value
                               - concurrence_general(to_product_matrix(s))))
    elapsed = time.perf_counter() - t0
    _report(7, worst < 1e-10 and elapsed < 10.0,
            f"x-form vs spin-flip concurrence gap {worst:.2e} on 1000 states "
            f"({elapsed:.2f} s)")


def test_criterion_08_finite_difference_rate():
    points = [ANCHOR,
              SystemParams(0.5, z=0.5, l=0.4),
              SystemParams(1.0, z=1.0, l=0.5),
              SystemParams(0.1, z=0.4, l=0.5)]
    delta = 1e-6
    checked, worst = 0, 0.0
    for p in points:
        coeffs = compute_coefficients(p)
        rate = generation_rate(coeffs).rate
        if rate <= 0.1:
            continue
        checked += 1
        res = evolve_numeric(prepare_initial("ten"), coeffs, delta, tol=1e-12)
        fd = res.concurrence[-1] / delta
        worst = max(worst, abs(fd / rate - 1.0))
    _report(8, checked >= 3 and worst < 1e-3,
            f"finite-difference slope matches the rate to {worst:.2e} "
            f"at {checked} points with rate > 0.1")


def test_criterion_09_qualitative_figure_reproduction():
    # survey of the generation rate vs boundary distance at small acceleration
    t0 = time.perf_counter()
    spec2 = preset(2)[0]
    assert spec2.fixed["a_over_omega"] == 0.1
    rows = run_sweep(spec2).rows
    fig2_time = time.perf_counter() - t0
    v = np.array([r.value for r in rows if r.variant == "with_D"])
    final = v[-1]
    within = np.abs(v - final) <= 0.01 * abs(final)
    settle = len(v) - 1
    for i in range(len(v) - 1, -1, -1):
        if within[i]:
            settle = i
        else:
            break
    sign = np.sign(np.diff(v[:settle + 1]))
    sign = sign[sign != 0.0]
    changes = int(np.sum(sign[1:] != sign[:-1]))

    # time evolution of concurrence at small acceleration and small distance
    t0 = time.perf_counter()
    spec5 = preset(5)[0]
    assert spec5.fixed == {"l_omega": 0.5, "z_omega": 0.4, "a_over_omega": 0.1}
    res5 = run_sweep(spec5)
    fig5_time = time.perf_counter() - t0
    taus = np.array(spec5.grid)
    cw = np.array([r.value for r in res5.rows if r.variant == "with_D"])
    coeffs5 = compute_coefficients(SystemParams.from_dimensionless(**spec5.fixed))
    peaks = np.nonzero((cw[1:-1] >= cw[:-2]) & (cw[1:-1] > cw[2:])
                       & (cw[1:-1] > 1e-6))[0] + 1
    # oscillation maxima sit on the half-period lattice of sin^2(4 d tau) ...
    lattice_ok = all(
        abs(4.0 * coeffs5.d * taus[i] / math.pi - (k + 0.5)) < 0.35
        for k, i in enumerate(peaks[:4]))
    # ... and the curves with and without the coupling coincide where the
    # oscillating term vanishes, at 4 d tau = n pi
    coincide = 0.0
    for n in (1, 2, 3):
        tn = n * math.pi / (4.0 * coeffs5.d)
        a = evolve_closed(prepare_initial("ten"), coeffs5, [tn]).concurrence[0]
        b = evolve_closed(prepare_initial("ten"), coeffs5.without_d(),
                          [tn]).concurrence[0]
        coincide = max(coincide, abs(a - b))

    ok = (changes >= 2 and len(peaks) >= 2 and lattice_ok and coincide < 1e-10
          and fig2_time < 60.0 and fig5_time < 60.0)
    _report(9, ok,
            f"fig2: {changes} derivative sign changes before the 1% settle "
            f"({fig2_time:.2f} s); fig5: {len(peaks)} oscillation maxima on the "
            f"half-period lattice, variant curves coincide at 4*d*tau = n*pi "
            f"to {coincide:.1e} ({fig5_time:.2f} s)")


def test_criterion_10_wightman_ft_oracle():
    t0 = time.perf_counter()
    val = image_wightman_ft_oracle(1.0, ANCHOR)
    elapsed = time.perf_counter() - t0
    rel = abs(val / ref.FROZEN["image_corr_lam1"] - 1.0)
    _report(10, rel < 1e-2 and elapsed < 30.0,
            f"numerical image transform {val:.6f} vs closed form "
            f"{ref.FROZEN['image_corr_lam1']:.6f} (rel {rel:.1e}, {elapsed:.2f} s)")
