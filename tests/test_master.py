"""States, the master-equation right-hand side, both solvers, and the
stationary state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mirroratoms.evolution as evolution
from mirroratoms import (CoefficientSet, ConvergenceError, DegenerateKernelError,
                         DomainError, InvariantError, SystemParams, XState,
                         compute_coefficients, default_time_grid, evolve_closed,
                         evolve_numeric, population_generator, prepare_initial,
                         rhs, slowest_relaxation_rate, steady_state)

from conftest import random_params, random_x_state
import reference as ref


# --- XState and prepare_initial -------------------------------------------

def test_prepare_initial_ten():
    s = prepare_initial("ten")
    assert (s.p_aa, s.p_ss, s.c_as) == (0.5, 0.5, 0.5 + 0.0j)
    assert s.p_gg == 0.0 and s.p_ee == 0.0 and s.c_ge == 0.0


def test_prepare_initial_bell_states():
    a = prepare_initial("bell_A")
    assert a.trace == pytest.approx(1.0, abs=1e-15)
    assert a.p_aa == 1.0
    s = prepare_initial("bell_S")
    assert s.p_ss == 1.0


def test_prepare_initial_custom_passthrough():
    custom = XState(p_gg=0.3, p_ee=0.1, p_aa=0.4, p_ss=0.2, c_as=0.1j)
    assert prepare_initial(custom) is custom
    with pytest.raises(DomainError):
        prepare_initial("eleven")


def test_ground_state_is_inertial_fixed_point():
    # without acceleration there are no upward rates, so |00><00| is stationary
    ground = XState(p_gg=1.0, p_ee=0.0, p_aa=0.0, p_ss=0.0)
    c = compute_coefficients(SystemParams(omega=1.0, accel=0.0, z=0.4, l=0.3))
    dot = rhs(ground, c)
    assert max(abs(dot.p_gg), abs(dot.p_ee), abs(dot.p_aa), abs(dot.p_ss)) < 1e-15
    evolved = evolve_closed(ground, c, [5.0]).states[0]
    assert evolved.p_gg == pytest.approx(1.0, abs=1e-12)


def test_xstate_invariant_violations():
    with pytest.raises(InvariantError):
        XState(p_gg=0.5, p_ee=0.5, p_aa=0.1, p_ss=0.0)  # trace 1.1
    with pytest.raises(InvariantError):
        XState(p_gg=1.001, p_ee=-0.001, p_aa=0.0, p_ss=0.0)  # negative pop
    with pytest.raises(InvariantError):
        XState(p_gg=0.5, p_ee=0.5, p_aa=0.0, p_ss=0.0, c_as=0.3)  # positivity
    with pytest.raises(InvariantError):
        XState(p_gg=0.5, p_ee=0.5, p_aa=0.0, p_ss=0.0, c_ge=0.6)


def test_xstate_clamps_roundoff_negatives():
    s = XState(p_gg=1.0 + 1e-13, p_ee=-1e-13, p_aa=0.0, p_ss=0.0)
    assert s.p_ee == 0.0
    assert s.p_gg > 1.0


# --- rhs -------------------------------------------------------------------

def test_rhs_at_ten_initial(anchor_params):
    c = compute_coefficients(anchor_params)
    dot = rhs(prepare_initial("ten"), c)
    assert dot.p_gg == pytest.approx(2.0 * (c.a1 + c.b1), rel=1e-14)
    assert dot.p_ee == pytest.approx(2.0 * (c.a1 - c.b1), rel=1e-14)
    assert dot.c_ge == 0.0


def test_rhs_population_derivatives_trace_free():
    rng = np.random.default_rng(23)
    for _ in range(30):
        state = random_x_state(rng)
        c = compute_coefficients(random_params(rng))
        dot = rhs(state, c)
        total = dot.p_gg + dot.p_ee + dot.p_aa + dot.p_ss
        scale = max(abs(dot.p_gg), abs(dot.p_ee), abs(dot.p_aa), abs(dot.p_ss), 1e-30)
        assert abs(total) < 1e-13 * scale


def test_rhs_coherence_equations(anchor_params):
    c = compute_coefficients(anchor_params)
    state = XState(p_gg=0.2, p_ee=0.2, p_aa=0.3, p_ss=0.3, c_as=0.1 + 0.05j,
                   c_ge=0.05j)
    dot = rhs(state, c)
    assert dot.c_as == pytest.approx(-4.0 * (c.a1 + 1j * c.d) * state.c_as, rel=1e-14)
    assert dot.c_ge == pytest.approx(-4.0 * c.a1 * state.c_ge, rel=1e-14)


def test_population_generator_columns_sum_to_zero():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = population_generator(compute_coefficients(random_params(rng)))
        assert np.max(np.abs(m.sum(axis=0))) < 1e-15


# --- evolve_closed ---------------------------------------------------------

def test_evolve_closed_identity_at_zero(anchor_params):
    c = compute_coefficients(anchor_params)
    s0 = prepare_initial("ten")
    out = evolve_closed(s0, c, [0.0]).states[0]
    assert out.p_aa == pytest.approx(0.5, abs=1e-14)
    assert out.c_as == pytest.approx(0.5, abs=1e-14)


def test_evolve_closed_coherence_law(anchor_params):
    c = compute_coefficients(anchor_params)
    taus = np.linspace(0.0, 10.0, 57)[1:]
    res = evolve_closed(prepare_initial("ten"), c, taus)
    for t, s in zip(taus, res.states):
        assert abs(s.c_as) == pytest.approx(0.5 * math.exp(-4.0 * c.a1 * t), abs=1e-12)
        expected = 0.5 * np.exp(-4.0 * (c.a1 + 1j * c.d) * t)
        assert abs(s.c_as - expected) < 1e-12
        assert s.c_ge == 0.0  # stays identically zero from the ten state


def test_evolve_closed_reaches_unruh_gibbs_state(anchor_params):
    c = compute_coefficients(anchor_params)
    t_relax = math.log(1e7) / slowest_relaxation_rate(c)
    final = evolve_closed(prepare_initial("ten"), c, [t_relax]).states[0]
    assert final.p_gg == pytest.approx(0.996276, abs=1e-5)
    assert final.p_aa == pytest.approx(0.0018604, abs=1e-5)
    assert final.p_ss == pytest.approx(0.0018604, abs=1e-5)
    assert final.p_ee == pytest.approx(3.47e-6, abs=1e-5)


def test_populations_independent_of_d_in_both_solvers(anchor_params):
    c = compute_coefficients(anchor_params)
    taus = np.linspace(0.0, 20.0, 41)
    with_d = evolve_closed(prepare_initial("ten"), c, taus)
    without = evolve_closed(prepare_initial("ten"), c.without_d(), taus)
    for a, b in zip(with_d.states, without.states):
        assert a.populations.tolist() == b.populations.tolist()
    # the numeric runs may settle at different step counts (the coherence
    # drives the refinement), so populations agree to solver accuracy only
    num_with = evolve_numeric(prepare_initial("ten"), c, 10.0, tol=1e-9)
    num_without = evolve_numeric(prepare_initial("ten"), c.without_d(), 10.0,
                                 tol=1e-9)
    for a, b in zip(num_with.states, num_without.states):
        assert np.max(np.abs(a.populations - b.populations)) < 1e-9


def test_evolve_closed_time_validation(anchor_params):
    c = compute_coefficients(anchor_params)
    s0 = prepare_initial("ten")
    with pytest.raises(DomainError):
        evolve_closed(s0, c, [1.0, 0.5])
    with pytest.raises(DomainError):
        evolve_closed(s0, c, [-1.0, 0.5])
    with pytest.raises(DomainError):
        evolve_closed(s0, c, [])
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="times must be finite"):
            evolve_closed(s0, c, [0.0, bad])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(z_omega=st.floats(0.4, 20.0), a_over_omega=st.floats(0.1, 2.7),
       l_omega=st.floats(0.5, 1.9), with_d=st.booleans(),
       start=st.floats(0.0, 0.5),
       gaps=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=80))
def test_evolve_closed_stamp_bytes_independent_of_grid(z_omega, a_over_omega, l_omega,
                                                       with_d, start, gaps):
    # figure 5/6 panel ranges; each stamp of a whole-grid call must carry the
    # same bits as a call for that stamp alone, which tau sweeps rely on
    c = compute_coefficients(SystemParams.from_dimensionless(
        z_omega=z_omega, a_over_omega=a_over_omega, l_omega=l_omega))
    c = c if with_d else c.without_d()
    t = evolution.tau_horizon(c) * np.cumsum([start, *gaps]) / (start + sum(gaps) + 1e-3)
    s0 = prepare_initial("ten")
    res = evolve_closed(s0, c, t)
    for i, ti in enumerate(t):
        alone = evolve_closed(s0, c, [ti])
        assert res.concurrence[i].tobytes() == alone.concurrence[0].tobytes()
        assert res.states[i] == alone.states[0]


def test_monotone_coherence_decay(anchor_params):
    c = compute_coefficients(anchor_params)
    res = evolve_closed(prepare_initial("ten"), c, np.linspace(0.0, 5.0, 200))
    mags = np.array([abs(s.c_as) for s in res.states])
    assert np.all(np.diff(mags) < 0.0)


# --- evolve_numeric ---------------------------------------------------------

def test_solvers_agree_at_fig5_point():
    p = SystemParams(omega=1.0, accel=0.1, z=0.4, l=0.5)
    c = compute_coefficients(p)
    num = evolve_numeric(prepare_initial("ten"), c, 10.0, tol=1e-9)
    clo = evolve_closed(prepare_initial("ten"), c, num.times)
    for t in (0.1, 1.0, 10.0):
        i = int(np.argmin(np.abs(num.times - t)))
        assert num.times[i] == pytest.approx(t, abs=1e-12)
        a, b = num.states[i], clo.states[i]
        assert np.max(np.abs(a.populations - b.populations)) < 1e-8
        assert abs(a.c_as - b.c_as) < 1e-8


def test_solvers_agree_on_random_draws():
    rng = np.random.default_rng(31)
    for _ in range(3):
        c = compute_coefficients(random_params(rng))
        num = evolve_numeric(prepare_initial("ten"), c, 20.0, tol=1e-9)
        clo = evolve_closed(prepare_initial("ten"), c, num.times)
        gap = max(np.max(np.abs(a.populations - b.populations))
                  for a, b in zip(num.states, clo.states))
        assert gap < 1e-8


def test_numeric_trace_drift(anchor_params):
    c = compute_coefficients(anchor_params)
    res = evolve_numeric(prepare_initial("ten"), c, 20.0, tol=1e-10)
    drift = max(abs(s.trace - 1.0) for s in res.states)
    assert drift < 1e-10


def test_numeric_tolerance_validation(anchor_params):
    c = compute_coefficients(anchor_params)
    with pytest.raises(DomainError):
        evolve_numeric(prepare_initial("ten"), c, 1.0, tol=1e-3)
    with pytest.raises(DomainError):
        evolve_numeric(prepare_initial("ten"), c, 1.0, tol=1e-13)
    with pytest.raises(DomainError):
        evolve_numeric(prepare_initial("ten"), c, 0.0)


def test_numeric_step_budget(monkeypatch):
    monkeypatch.setattr(evolution, "_STEP_BUDGET", 400)
    c = CoefficientSet(a1=50.0, a2=0.0, b1=50.0, b2=0.0, d=0.0)
    with pytest.raises(ConvergenceError):
        evolve_numeric(prepare_initial("ten"), c, 50.0, tol=1e-12)


# --- steady_state ------------------------------------------------------------

def test_steady_state_inertial_is_ground():
    c = compute_coefficients(SystemParams(omega=1.0, accel=0.0, z=0.4, l=0.3))
    s = steady_state(c)
    assert s.p_gg == pytest.approx(1.0, abs=1e-12)


def test_steady_state_matches_gibbs_product(anchor_params):
    s = steady_state(compute_coefficients(anchor_params))
    assert s.p_gg == pytest.approx(ref.FROZEN["gibbs_p_gg"], abs=1e-10)
    assert s.p_aa == pytest.approx(ref.FROZEN["gibbs_p_aa"], abs=1e-10)
    assert s.p_ss == pytest.approx(ref.FROZEN["gibbs_p_aa"], abs=1e-10)
    assert s.p_ee == pytest.approx(ref.FROZEN["gibbs_p_ee"], abs=1e-10)


def test_steady_state_independent_of_boundary_distance():
    near = steady_state(compute_coefficients(SystemParams(1.0, 1.0, z=0.4, l=0.3)))
    far = steady_state(compute_coefficients(SystemParams(1.0, 1.0, z=20.0, l=0.3)))
    assert np.max(np.abs(near.populations - far.populations)) < 1e-10


def test_steady_state_is_stationary():
    rng = np.random.default_rng(37)
    for _ in range(10):
        c = compute_coefficients(random_params(rng))
        dot = rhs(steady_state(c), c)
        assert max(abs(dot.p_gg), abs(dot.p_ee), abs(dot.p_aa), abs(dot.p_ss)) < 1e-12


def test_steady_state_degenerate_kernel():
    c = CoefficientSet(a1=1.0, a2=1.0, b1=1.0, b2=1.0, d=0.0)
    with pytest.raises(DegenerateKernelError):
        steady_state(c)
    with pytest.raises(DomainError):
        steady_state(CoefficientSet(a1=0.0, a2=0.0, b1=0.0, b2=0.0, d=0.0))


# --- grids -------------------------------------------------------------------

def test_default_time_grid_resolves_oscillation(anchor_params):
    c = compute_coefficients(anchor_params)
    grid = default_time_grid(c, 30.0)
    assert grid[0] == 0.0 and grid[-1] == 30.0
    assert np.all(np.diff(grid) > 0.0)
    scale = min(math.pi / (2.0 * abs(c.d)), 1.0 / (4.0 * c.a1))
    assert np.max(np.diff(grid)) <= scale / 40.0 * (1.0 + 1e-12)


def test_tau_horizon_is_six_coherence_e_folds(anchor_params):
    c = compute_coefficients(anchor_params)
    horizon = evolution.tau_horizon(c)
    assert horizon == 6.0 / (4.0 * c.a1)
    end = evolve_closed(prepare_initial("ten"), c, [horizon]).states[0]
    assert abs(end.c_as) == pytest.approx(0.5 * math.exp(-6.0), rel=1e-12)
    with pytest.raises(DomainError):
        evolution.tau_horizon(CoefficientSet(a1=0.0, a2=0.0, b1=0.0, b2=0.0, d=0.0))


def test_trace_preserved_along_closed_evolution():
    rng = np.random.default_rng(41)
    for _ in range(5):
        c = compute_coefficients(random_params(rng))
        res = evolve_closed(random_x_state(rng), c, np.linspace(0.0, 20.0, 101))
        assert max(abs(s.trace - 1.0) for s in res.states) < 1e-12
