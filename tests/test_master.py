"""States, the population generator, the closed solver against the RK4
oracle, and the stationary state."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mirroratoms.evolution as evolution
from mirroratoms import (CoefficientSet, ConvergenceError, DegenerateKernelError,
                         DomainError, InvariantError, SystemParams, XState,
                         compute_coefficients, default_time_grid, evolve_closed,
                         population_generator, prepare_initial)
from mirroratoms.concurrence import concurrence_x

from conftest import random_params, random_x_state, steady_state
import oracles
from oracles import evolve_numeric
import reference as ref


def _population_rates(state: XState, coeffs: CoefficientSet) -> np.ndarray:
    """The populations' time derivative p' = M p, in the order (gg, ee, aa, ss)."""
    return population_generator(coeffs) @ state.populations


# --- XState and prepare_initial -------------------------------------------

def test_prepare_initial_ten():
    s = prepare_initial("ten")
    assert (s.p_aa, s.p_ss, s.c_as) == (0.5, 0.5, 0.5 + 0.0j)
    assert s.p_gg == 0.0 and s.p_ee == 0.0 and s.c_ge == 0.0


def test_prepare_initial_bell_states():
    a = XState(p_gg=0.0, p_ee=0.0, p_aa=1.0, p_ss=0.0)
    assert a.trace == pytest.approx(1.0, abs=1e-15)
    assert a.p_aa == 1.0
    s = XState(p_gg=0.0, p_ee=0.0, p_aa=0.0, p_ss=1.0)
    assert s.p_ss == 1.0


def test_prepare_initial_knows_only_ten():
    assert prepare_initial("ten") is prepare_initial("ten")
    custom = XState(p_gg=0.3, p_ee=0.1, p_aa=0.4, p_ss=0.2, c_as=0.1j)
    for label in ("bell_A", "bell_S", "eleven", custom):
        with pytest.raises(DomainError):
            prepare_initial(label)


def test_ground_state_is_inertial_fixed_point():
    # without acceleration there are no upward rates, so |00><00| is stationary
    ground = XState(p_gg=1.0, p_ee=0.0, p_aa=0.0, p_ss=0.0)
    c = compute_coefficients(SystemParams(accel=0.0, z=0.4, l=0.3))
    assert np.max(np.abs(_population_rates(ground, c))) < 1e-15
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


@pytest.mark.parametrize("field", ["c_as", "c_ge"])
@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, math.nan), complex(0.0, math.inf)],
                         ids=repr)
def test_xstate_rejects_non_finite_coherence(field, bad):
    # a NaN coherence slips through the positivity bound, and concurrence_x
    # used to report 0 for it
    with pytest.raises(InvariantError, match=f"coherence {field} is not finite"):
        XState(p_gg=0.0, p_ee=0.0, p_aa=0.5, p_ss=0.5, **{field: bad})


def test_xstate_clamps_roundoff_negatives():
    s = XState(p_gg=1.0 + 1e-13, p_ee=-1e-13, p_aa=0.0, p_ss=0.0)
    assert s.p_ee == 0.0
    assert s.p_gg > 1.0


# --- the X-state checks over arrays of stamps ---------------------------------

_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("entries, message", [
    ((1.001, -0.001, 0.0, 0.0), "population p_ee = -0.001 below -1e-09"),
    ((-0.5, _NAN, 0.0, 1.5), "population p_gg = -0.5 below -1e-09"),
    ((1.0, _NAN, 0.0, 0.0), "population p_ee is not finite"),
    ((1.0, 0.0, -_INF, 0.0), "population p_aa is not finite"),
    ((1.0, 0.0, 0.0, _INF), "population p_ss is not finite"),
    ((0.5, 0.5, 0.1, 0.0), "trace deviates from 1 by 1.000e-01"),
    ((0.0, 0.0, 0.5, 0.5, complex(0.0, _INF)), "coherence c_as is not finite"),
    ((0.0, 0.0, 0.5, 0.5, 0.0, _NAN), "coherence c_ge is not finite"),
    ((0.5, 0.5, 0.1, 0.0, _NAN), "coherence c_as is not finite"),  # before the trace
    ((0.5, 0.5, 0.0, 0.0, 0.3), "coherence c_as violates |c|^2 <= p_aa*p_ss"),
    ((0.5, 0.5, 0.0, 0.0, 0.0, 0.6), "coherence c_ge violates |c|^2 <= p_gg*p_ee"),
])
def test_xstate_failure_messages(entries, message):
    with pytest.raises(InvariantError) as exc:
        XState(*entries)
    assert str(exc.value) == message


def test_array_check_reports_the_first_failing_stamp():
    # stamp 1 fails its trace, stamp 2 a population: stamp 1 is reported
    pops = np.array([[1.0, 0.5, 1.0], [0.0, 0.6, _NAN], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(InvariantError, match=r"^trace deviates from 1 by 1\.000e-01$"):
        evolution.x_invariants(*pops, np.zeros(3), np.zeros(3), evolution.HARD_TOL)
    held, c_as, c_ge = evolution.x_invariants(*pops[:, :1], [0.0], [0.0], evolution.HARD_TOL)
    assert held.shape == (4, 1) and c_as.dtype == c_ge.dtype == complex


_SPECIAL = st.sampled_from([_NAN, _INF, -_INF])


@st.composite
def x_stamps(draw, tol):
    """The entries of one X state: a valid state, or one with some entries
    moved to negatives within and beyond tol, to NaN or +-inf, off the unit
    trace, or with coherences within or over their positivity bound."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = sum(weights)
    pops = [w / total for w in weights] if total > 0.0 else [1.0, 0.0, 0.0, 0.0]
    for k in range(4):
        kind = draw(st.sampled_from(["keep"] * 12 + ["negative"] * 3 + ["shift", "special"]))
        if kind == "negative":  # moving its weight on, so that only the clamp moves the trace
            pops[(k + 1) % 4] += pops[k]
            pops[k] = -tol * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3]))
        elif kind == "shift":
            pops[k] += tol * draw(st.sampled_from([-3.0, -1.5, -0.5, 0.5, 1.5, 3.0, 1e6]))
        elif kind == "special":
            pops[k] = draw(_SPECIAL)
    coherences = []
    for i, j in ((2, 3), (0, 1)):
        kind = draw(st.sampled_from(["within"] * 6 + ["over"] * 2 + ["special"]))
        if kind == "special":
            coherences.append(complex(draw(_SPECIAL), draw(st.sampled_from([0.0, _NAN]))))
            continue
        bound = math.sqrt(abs(pops[i] * pops[j])) if math.isfinite(pops[i] * pops[j]) else 1.0
        amp = bound * draw(st.floats(0.0, 1.0))
        if kind == "over":
            amp = bound + tol * draw(st.sampled_from([0.5, 3.0, 1e6]))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        coherences.append(complex(amp * math.cos(phase), amp * math.sin(phase)))
    return (*pops, *coherences)


def _outcome(check):
    """(True, value) of a check that passes, (False, message) of one that raises."""
    try:
        return True, check()
    except InvariantError as exc:
        return False, str(exc)


def _scalar_reference(p_gg, p_ee, p_aa, p_ss, c_as, c_ge, tol):
    """The XState checks one state at a time in plain Python, in their
    documented order: the clamped populations and the coherences, or the
    message of the first failing check."""
    pops = {"p_gg": p_gg, "p_ee": p_ee, "p_aa": p_aa, "p_ss": p_ss}
    for name, p in pops.items():
        if not math.isfinite(p):
            return False, f"population {name} is not finite"
        if p < -tol:
            return False, f"population {name} = {p} below -{tol:g}"
        pops[name] = 0.0 if p < 0.0 else p
    for name, c in (("c_as", c_as), ("c_ge", c_ge)):
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            return False, f"coherence {name} is not finite"
    g, e, a, s = pops.values()
    if abs(g + e + a + s - 1.0) > tol:
        return False, f"trace deviates from 1 by {g + e + a + s - 1.0:.3e}"
    if abs(c_as) * abs(c_as) > a * s + tol:
        return False, "coherence c_as violates |c|^2 <= p_aa*p_ss"
    if abs(c_ge) * abs(c_ge) > g * e + tol:
        return False, "coherence c_ge violates |c|^2 <= p_gg*p_ee"
    return True, (g, e, a, s, complex(c_as), complex(c_ge))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_array_check_accepts_exactly_when_every_state_does(data):
    tol = data.draw(st.sampled_from([evolution.HARD_TOL, 1e-6]))
    stamps = data.draw(st.lists(x_stamps(tol), min_size=1, max_size=6))
    states = [_outcome(lambda s=s: XState(*s, tol=tol)) for s in stamps]
    whole = _outcome(lambda: evolution.x_invariants(*map(np.array, zip(*stamps)), tol))
    reference = [_scalar_reference(*s, tol) for s in stamps]
    assert [ok for ok, _ in states] == [ok for ok, _ in reference]
    assert [m for ok, m in states if not ok] == [m for ok, m in reference if not ok]
    assert [astuple(st)[:6] for ok, st in states if ok] == [r for ok, r in reference if ok]
    failures = [message for ok, message in states if not ok]
    if failures:
        assert whole == (False, failures[0])
        return
    assert whole[0]
    held, c_as, c_ge = whole[1]
    for i, (_, state) in enumerate(states):
        assert held[:, i].tolist() == [state.p_gg, state.p_ee, state.p_aa, state.p_ss]
        assert (c_as[i], c_ge[i]) == (state.c_as, state.c_ge)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), with_d=st.booleans(),
       times=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=30, unique=True))
def test_states_view_matches_per_stamp_states(seed, with_d, times):
    rng = np.random.default_rng(seed)
    c = compute_coefficients(random_params(rng))
    c = c if with_d else c.without_d()
    initial = random_x_state(rng)
    res = evolve_closed(initial, c, sorted(times))
    states = tuple(XState(p_gg=res.populations[0, i], p_ee=res.populations[1, i],
                          p_aa=res.populations[2, i], p_ss=res.populations[3, i],
                          c_as=res.c_as[i], c_ge=res.c_ge[i]) for i in range(len(times)))
    assert res.states == states
    assert res.states == tuple(evolve_closed(initial, c, [t]).states[0] for t in sorted(times))
    assert [concurrence_x(s).value for s in res.states] == res.concurrence.tolist()
    assert evolve_closed(initial, c, sorted(times)).states is not res.states
    assert res.states is res.states  # built once


# --- the population generator -------------------------------------------------

def test_rhs_at_ten_initial(anchor_params):
    c = compute_coefficients(anchor_params)
    dot_gg, dot_ee, _, _ = _population_rates(prepare_initial("ten"), c)
    assert dot_gg == pytest.approx(2.0 * (c.a1 + c.b1), rel=1e-14)
    assert dot_ee == pytest.approx(2.0 * (c.a1 - c.b1), rel=1e-14)
    assert evolve_closed(prepare_initial("ten"), c, [1.0]).c_ge[0] == 0.0


def test_rhs_population_derivatives_trace_free():
    rng = np.random.default_rng(23)
    for _ in range(30):
        state = random_x_state(rng)
        c = compute_coefficients(random_params(rng))
        dot = _population_rates(state, c)
        total = dot[0] + dot[1] + dot[2] + dot[3]
        scale = max(*np.abs(dot), 1e-30)
        assert abs(total) < 1e-13 * scale


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
    t_relax = math.log(1e7) / evolution._relaxation_rates(population_generator(c)[None])[0]
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
    p = SystemParams(accel=0.1, z=0.4, l=0.5)
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
    monkeypatch.setattr(oracles, "_STEP_BUDGET", 400)
    c = CoefficientSet(a1=50.0, a2=0.0, b1=50.0, b2=0.0, d=0.0)
    with pytest.raises(ConvergenceError):
        evolve_numeric(prepare_initial("ten"), c, 50.0, tol=1e-12)


# --- steady_state ------------------------------------------------------------

def test_expm_fallback_matches_rk4():
    # at omega*L = 1e-6 a2 -> a1 and the generator's eigenbasis is too
    # ill-conditioned to use, so evolve_closed takes the expm branch
    c = compute_coefficients(SystemParams.from_dimensionless(0.5, 0.1, 1e-6))
    assert evolution.Propagators(evolution.rate_table([c]),
                                 prepare_initial("ten").populations).cond[0] == np.inf
    initial = prepare_initial("ten")
    closed = evolve_closed(initial, c, np.linspace(0.0, 20.0, 201))
    # the populations do not depend on d, and d ~ 1/(omega L) is too fast
    # for the fixed-step integrator
    numeric = evolve_numeric(initial, c.without_d(), 20.0, tol=1e-10)
    assert np.array_equal(closed.times, numeric.times)
    gap = max(np.max(np.abs(a.populations - b.populations))
              for a, b in zip(closed.states, numeric.states))
    assert gap < 1e-9


def test_steady_state_inertial_is_ground():
    c = compute_coefficients(SystemParams(accel=0.0, z=0.4, l=0.3))
    s = steady_state(c)
    assert s.p_gg == pytest.approx(1.0, abs=1e-12)


def test_steady_state_matches_gibbs_product(anchor_params):
    s = steady_state(compute_coefficients(anchor_params))
    assert s.p_gg == pytest.approx(ref.FROZEN["gibbs_p_gg"], abs=1e-10)
    assert s.p_aa == pytest.approx(ref.FROZEN["gibbs_p_aa"], abs=1e-10)
    assert s.p_ss == pytest.approx(ref.FROZEN["gibbs_p_aa"], abs=1e-10)
    assert s.p_ee == pytest.approx(ref.FROZEN["gibbs_p_ee"], abs=1e-10)


def test_steady_state_independent_of_boundary_distance():
    near = steady_state(compute_coefficients(SystemParams(1.0, z=0.4, l=0.3)))
    far = steady_state(compute_coefficients(SystemParams(1.0, z=20.0, l=0.3)))
    assert np.max(np.abs(near.populations - far.populations)) < 1e-10


def test_steady_state_is_stationary():
    rng = np.random.default_rng(37)
    for _ in range(10):
        c = compute_coefficients(random_params(rng))
        assert np.max(np.abs(_population_rates(steady_state(c), c))) < 1e-12


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


def test_default_time_grid_raises_beyond_its_point_budget(anchor_params):
    c = compute_coefficients(anchor_params)
    scale = min(math.pi / (2.0 * abs(c.d)), 1.0 / (4.0 * c.a1))
    # the budget is checked before the grid is allocated
    t_end = 2.0 * evolution.MAX_GRID_POINTS * scale / evolution.SAMPLES_PER_SCALE
    with pytest.raises(ConvergenceError, match="budget"):
        default_time_grid(c, t_end)


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
