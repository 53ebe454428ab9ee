"""Concurrence measures, generation rate, and the maximum-of-concurrence search."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import mirroratoms.concurrence as concurrence_mod
from mirroratoms import (CoefficientSet, ConvergenceError, DomainError,
                         InvariantError, SweepSpec,
                         SystemParams, XState, compute_coefficients,
                         concurrence_x, default_horizon,
                         evolve_closed, generation_rate,
                         max_concurrence, max_concurrences, population_generator,
                         prepare_initial, preset, run_sweep)
from mirroratoms.cli import main
from mirroratoms.concurrence import _Grid, _plan, _refine, _Trajectories
from mirroratoms.errors import NUMERICAL_ERRORS
from mirroratoms.evolution import HARD_TOL, Propagators, x_concurrence

from conftest import random_params, random_x_state
from oracles import concurrence_general, evolve_numeric, k1_closed, to_product_matrix
import reference as ref


# --- concurrence_x -----------------------------------------------------------

def test_bell_state_is_maximally_entangled():
    bell_a = XState(p_gg=0.0, p_ee=0.0, p_aa=1.0, p_ss=0.0)
    bell_s = XState(p_gg=0.0, p_ee=0.0, p_aa=0.0, p_ss=1.0)
    assert concurrence_x(bell_a).value == pytest.approx(1.0, abs=1e-15)
    assert concurrence_x(bell_s).value == pytest.approx(1.0, abs=1e-15)


def test_ten_state_is_separable(anchor_params):
    rep = concurrence_x(prepare_initial("ten"))
    assert rep.value == 0.0
    assert rep.k1 == pytest.approx(0.0, abs=1e-15)
    assert rep.k2 == pytest.approx(0.0, abs=1e-15)
    # k2 turns strictly negative as soon as the evolution starts
    c = compute_coefficients(anchor_params)
    evolved = evolve_closed(prepare_initial("ten"), c, [0.2, 1.0, 5.0])
    assert all(concurrence_x(s).k2 < 0.0 for s in evolved.states)


def test_diagonal_x_state_value():
    s = XState(p_gg=0.2, p_ee=0.0, p_aa=0.6, p_ss=0.2)
    rep = concurrence_x(s)
    assert rep.value == pytest.approx(0.4, abs=1e-14)
    assert concurrence_general(to_product_matrix(s)) == pytest.approx(0.4, abs=1e-12)


def test_report_value_is_max_of_candidates():
    rng = np.random.default_rng(43)
    for _ in range(100):
        rep = concurrence_x(random_x_state(rng))
        assert rep.value == pytest.approx(min(max(0.0, rep.k1, rep.k2), 1.0), abs=0)
        assert 0.0 <= rep.value <= 1.0 + 1e-12


# --- x_concurrence ------------------------------------------------------------

@st.composite
def x_entries(draw):
    """The entries of one X state, not normalised, with roundoff-negative
    p_gg, p_ee and a nonnegative k2 radicand: |Re c_as| <= (p_aa + p_ss) / 2."""
    unit = st.floats(-1.0, 1.0)
    p_gg, p_ee = draw(st.floats(-1e-12, 1.0)), draw(st.floats(-1e-12, 1.0))
    p_aa, p_ss = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    c_as = complex(draw(unit) * (p_aa + p_ss) / 2.0, draw(unit))
    return p_gg, p_ee, p_aa, p_ss, c_as, complex(draw(unit), draw(unit))


def _written_out(p_gg, p_ee, p_aa, p_ss, c_as, c_ge):
    """The kernel's formulas in Python floats, every square a product x * x."""
    diff, total = p_aa - p_ss, p_aa + p_ss
    k1 = (math.sqrt(diff * diff + 4.0 * (c_as.imag * c_as.imag))
          - 2.0 * math.sqrt(max(p_gg * p_ee, 0.0)))
    k2 = 2.0 * abs(c_ge) - math.sqrt(max(total * total - 4.0 * (c_as.real * c_as.real), 0.0))
    return k1, k2, min(max(0.0, k1, k2), 1.0)


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(states=st.lists(x_entries(), min_size=1, max_size=9))
def test_kernel_element_has_the_bits_of_a_single_call(states):
    columns = [np.array(column) for column in zip(*states)]
    k1, k2, value = x_concurrence(*columns, HARD_TOL)
    # a real, nonnegative c_ge (the search grid's form) is its own modulus
    moduli = np.array([abs(c_ge) for *_, c_ge in states])
    assert _bits(x_concurrence(*columns[:5], moduli, HARD_TOL)[1]) == _bits(k2)
    for i, entries in enumerate(states):
        single = x_concurrence(*([e] for e in entries), HARD_TOL)
        assert _bits((k1[i], k2[i], value[i])) == _bits(c[0] for c in single)
        assert _bits((k1[i], k2[i], value[i])) == _bits(_written_out(*entries))


def test_concurrence_x_reports_the_kernel():
    rng = np.random.default_rng(59)
    for _ in range(200):
        s = random_x_state(rng)
        rep = concurrence_x(s)
        kernel = x_concurrence(s.p_gg, s.p_ee, s.p_aa, s.p_ss, s.c_as, s.c_ge, s.tol)
        assert _bits((rep.k1, rep.k2, rep.value)) == _bits(kernel)


def test_kernel_rejects_a_negative_radicand():
    with pytest.raises(InvariantError, match="negative k2 radicand -1.000e-08"):
        x_concurrence([0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.5, 0.0],
                      [0.5, 0.5e-4], [0.0, 0.0], 1e-9)


# --- concurrence_general -------------------------------------------------------

def test_maximally_mixed_is_separable():
    assert concurrence_general(np.eye(4) / 4.0) == 0.0


def test_pure_product_states_are_separable():
    rng = np.random.default_rng(47)
    for _ in range(20):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        rho = np.outer(psi, psi.conj())
        assert concurrence_general(rho) < 1e-10


def test_general_matches_x_form_on_random_states():
    rng = np.random.default_rng(53)
    for _ in range(300):
        s = random_x_state(rng)
        assert abs(concurrence_general(to_product_matrix(s))
                   - concurrence_x(s).value) < 1e-10


def test_general_rejects_bad_input():
    with pytest.raises(DomainError):
        concurrence_general(np.eye(3) / 3.0)
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 0.2  # not Hermitian
    with pytest.raises(DomainError):
        concurrence_general(rho)
    with pytest.raises(DomainError):
        concurrence_general(np.eye(4) / 2.0)  # trace 2
    bad = np.diag([0.6, 0.5, -0.1, 0.0])  # not PSD
    with pytest.raises(DomainError):
        concurrence_general(bad)


# --- to_product_matrix ----------------------------------------------------------

def test_antisymmetric_bell_in_product_basis():
    rho = to_product_matrix(XState(p_gg=0.0, p_ee=0.0, p_aa=1.0, p_ss=0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_ten_is_rank_one_projector():
    rho = to_product_matrix(prepare_initial("ten"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0  # |10><10|
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_basis_change_preserves_trace_and_spectrum():
    rng = np.random.default_rng(59)
    for _ in range(50):
        s = random_x_state(rng)
        rho = to_product_matrix(s)
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        coupled = np.array([
            [s.p_gg, 0, 0, s.c_ge],
            [0, s.p_aa, s.c_as, 0],
            [0, np.conj(s.c_as), s.p_ss, 0],
            [np.conj(s.c_ge), 0, 0, s.p_ee]], dtype=complex)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(rho))
                             - np.sort(np.linalg.eigvalsh(coupled)))) < 1e-13


# --- generation_rate -------------------------------------------------------------

def test_rate_anchor(anchor_params):
    rep = generation_rate(compute_coefficients(anchor_params))
    assert rep.rate == pytest.approx(2.415, abs=3e-3)
    assert rep.rate == pytest.approx(ref.FROZEN["rate"], rel=1e-12)
    assert rep.generates


def test_rate_without_coupling_or_cross_channel():
    c = CoefficientSet(a1=0.3, a2=0.0, b1=0.2, b2=0.0, d=0.0)
    rep = generation_rate(c)
    assert rep.rate == pytest.approx(-4.0 * math.sqrt(0.3 ** 2 - 0.2 ** 2), rel=1e-14)
    assert not rep.generates


def test_rate_monotone_in_coupling_strength():
    base = CoefficientSet(a1=0.3, a2=0.1, b1=0.2, b2=0.05, d=0.0)
    rates = [generation_rate(CoefficientSet(a1=base.a1, a2=base.a2, b1=base.b1,
                                            b2=base.b2, d=d)).rate
             for d in (0.0, 0.05, 0.1, 0.5, 2.0)]
    assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:]))
    assert rates[0] == generation_rate(base).rate  # equality iff d = 0


def test_rate_with_d_never_below_without(anchor_params):
    rng = np.random.default_rng(61)
    for _ in range(50):
        c = compute_coefficients(random_params(rng))
        assert generation_rate(c).rate >= generation_rate(c.without_d()).rate


def test_rate_rejects_inverted_rates():
    with pytest.raises(DomainError):
        generation_rate(CoefficientSet(a1=0.1, a2=0.0, b1=0.2, b2=0.0, d=0.0))


def test_generates_flag_equivalent_to_condition():
    rng = np.random.default_rng(67)
    for _ in range(100):
        c = compute_coefficients(random_params(rng))
        rep = generation_rate(c)
        assert rep.generates == (c.a2 ** 2 + c.d ** 2 > c.a1 ** 2 - c.b1 ** 2)


def test_finite_difference_matches_rate(anchor_params):
    c = compute_coefficients(anchor_params)
    delta = 1e-6
    res = evolve_numeric(prepare_initial("ten"), c, delta, tol=1e-12)
    fd = res.concurrence[-1] / delta
    assert fd == pytest.approx(generation_rate(c).rate, rel=1e-3)


# --- k1_closed --------------------------------------------------------------------

def test_k1_closed_zero_at_origin(anchor_params):
    c = compute_coefficients(anchor_params)
    assert k1_closed(0.0, (0.5, 0.5, 0.0, 0.0), c) == 0.0


def test_k1_closed_additional_term_vanishes_on_lattice(anchor_params):
    c = compute_coefficients(anchor_params)
    pops = (0.4, 0.3, 0.2, 0.1)
    for n in (1, 2, 3, 5):
        tau = n * math.pi / (4.0 * c.d)
        assert k1_closed(tau, pops, c) == pytest.approx(
            k1_closed(tau, pops, c.without_d()), abs=1e-10)


def test_k1_closed_consistent_with_evolved_states():
    p = SystemParams(accel=0.1, z=0.4, l=0.5)
    c = compute_coefficients(p)
    taus = np.linspace(0.0, 30.0, 301)
    res = evolve_closed(prepare_initial("ten"), c, taus)
    for t, s in zip(taus, res.states):
        closed = k1_closed(t, (s.p_aa, s.p_ss, s.p_gg, s.p_ee), c)
        assert closed == pytest.approx(concurrence_x(s).k1, abs=1e-10)


# --- max_concurrence ----------------------------------------------------------------

def test_max_concurrence_zero_without_generation():
    p = SystemParams(accel=2.0, z=100.0, l=7.0)
    coeffs = compute_coefficients(p).without_d()
    assert not generation_rate(coeffs).generates
    tau_star, c_max = max_concurrence(p, coeffs=coeffs)
    assert (tau_star, c_max) == (0.0, 0.0)


def test_max_concurrence_searches_from_ten_only(anchor_params):
    # the paper's one initial state is a constant of the search, not a parameter
    for search in (max_concurrence, max_concurrences):
        assert "initial" not in inspect.signature(search).parameters
    with pytest.raises(TypeError):
        max_concurrence(anchor_params, initial="ten")


def test_max_concurrence_coupling_never_hurts():
    # the oscillating term shares the population background, so zeroing the
    # coupling can only lower the maximum; sampled over the l=0.4 survey grid
    for a in (0.1, 1.0):
        for z in (0.4, 1.0, 5.0, 20.0):
            p = SystemParams(accel=a, z=z, l=0.4)
            c = compute_coefficients(p)
            _, with_d = max_concurrence(p, coeffs=c)
            _, without = max_concurrence(p, coeffs=c.without_d())
            assert with_d >= without - 1e-10


def test_max_concurrence_grid_doubling_invariance(anchor_params, monkeypatch):
    t1, c1 = max_concurrence(anchor_params)
    monkeypatch.setattr(concurrence_mod, "SAMPLES_PER_SCALE",
                        2 * concurrence_mod.SAMPLES_PER_SCALE)
    t2, c2 = max_concurrence(anchor_params)
    assert abs(c1 - c2) < 1e-9
    assert abs(t1 - t2) < 1e-4


def test_max_concurrence_warns_at_short_horizon(anchor_params):
    with pytest.warns(RuntimeWarning):
        tau_star, _ = max_concurrence(anchor_params, horizon=0.3)
    assert tau_star == pytest.approx(0.3, abs=1e-9)


def test_max_concurrence_validation(anchor_params):
    with pytest.raises(DomainError):
        max_concurrence(anchor_params, tol=1.0)
    with pytest.raises(DomainError):
        max_concurrence(anchor_params, horizon=-1.0)


def test_max_concurrence_rejects_a_positivity_breach():
    # a1 < b1 and a1 < |a2| give negative transition rates; the search used
    # to return (1.98, 1.0) for this set instead of raising
    coeffs = CoefficientSet(0.1, -0.4, 0.15, 0.4, -0.3)
    with pytest.raises(InvariantError, match="negative k2 radicand"):
        max_concurrence(None, horizon=3.0, coeffs=coeffs)


def test_max_concurrence_returns_at_huge_horizon():
    # the default horizon here is 3.4e10; a uniform grid over it puts brackets
    # near tau = 1e9, where doubles are spaced wider than an absolute stopping
    # width of 1e-8. Expected value: the dense scan of
    # bench/make_cmax_reference.py run on this point.
    p = SystemParams.from_dimensionless(z_omega=3e-4, a_over_omega=0.1, l_omega=0.3)
    tau_star, c_max = max_concurrence(p)
    assert abs(c_max - 0.986544269526665) < 1e-12
    assert tau_star == pytest.approx(2.2444e5, rel=1e-4)


@pytest.mark.parametrize("a_over_omega, expected", [
    (0.1, 0.9872831468976826),  # bench/cmax_reference.json, figure 10 rows
    (1.0, 0.9772040343323681),
])
def test_max_concurrence_finds_first_coherent_peak(a_over_omega, expected):
    # resolving d over the whole horizon (up to 4.5e5) would take 5.6e7
    # uniform samples; a grid capped below that steps over the peak near 0.08
    p = SystemParams.from_dimensionless(z_omega=0.5, a_over_omega=a_over_omega,
                                        l_omega=0.05)
    tau_star, c_max = max_concurrence(p)
    assert abs(c_max - expected) < 1e-12
    assert tau_star == pytest.approx(0.080, abs=1e-3)


def test_dense_budget_overrun_is_an_error(monkeypatch, anchor_params, capsys):
    monkeypatch.setattr(concurrence_mod, "_DENSE_BUDGET", 10)
    with pytest.raises(ConvergenceError):
        max_concurrence(anchor_params)
    spec = SweepSpec(axis="z_omega", grid=(0.4,), quantity="cmax",
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3})
    rows = run_sweep(spec).rows
    assert all(row.value is None and "budget" in row.error for row in rows)
    assert main(["cmax", "--z", "0.4", "--l", "0.3"]) == 3
    assert "budget" in capsys.readouterr().err


# (omega*z, a/omega, omega*L) of a batch, both variants each: ordinary rows
# and (0.5, 0.1, 1e-4), the budget probe; (24.1, 1.88, 1.83e-8), where
# a1 == a2 and the steady state is degenerate; (0.5, 0.1, 1e-6), whose
# eigenbasis is too ill-conditioned to use (expm)
_BUDGET_PROBE = (0.5, 0.1, 1e-4)
_EXPM_ROW = (0.5, 0.1, 1e-6)
_BATCH_POINTS = [(0.4, 1.0, 0.3), _BUDGET_PROBE, (20.0, 0.1, 3.0), (24.1, 1.88, 1.83e-8),
                 (0.01, 0.5, 0.4), _EXPM_ROW, (4000.0, 2.0, 30.0), (1.0, 2.7, 9.0),
                 (0.05, 0.1, 12.0)]
# the set of test_max_concurrence_rejects_a_positivity_breach
_BREACH = CoefficientSet(0.1, -0.4, 0.15, 0.4, -0.3)
_P0 = prepare_initial("ten").populations


def test_stacked_propagators_give_each_set_the_bits_of_its_own():
    # _BREACH's spectrum is complex, so the stack's eigenpairs are complex;
    # the sets of _EXPM_ROW take the expm path, the others the eigenbasis
    expm = compute_coefficients(SystemParams.from_dimensionless(*_EXPM_ROW))
    sets = [compute_coefficients(SystemParams.from_dimensionless(*dims))
            for dims in ((0.4, 1.0, 0.3), (20.0, 0.1, 3.0), (1.0, 2.7, 9.0))]
    sets[1:1] = [_BREACH, expm, expm.without_d()]
    stack = Propagators(sets, _P0)
    assert stack.w.dtype == complex and stack.real.tolist() == [1, 0, 1, 1, 1, 1]
    assert (stack.cond == np.inf).tolist() == [0, 0, 1, 1, 0, 0]
    taus = np.linspace(0.0, 3.0, 7)
    for i, coeffs in enumerate(sets):
        alone = Propagators([coeffs], _P0)
        assert stack.propagate(i, taus).tobytes() == alone.propagate(0, taus).tobytes()
        if alone.cond[0] < np.inf:  # the modes of evolve_closed's per-stamp products
            assert stack.modes(i, taus)[1].tobytes() == alone.modes(0, taus)[1].tobytes()


def _outcome(found):
    """The bits of a (tau_star, c_max), or the type and message of an error."""
    if isinstance(found, Exception):
        return type(found), str(found)
    return tuple(float(x).hex() for x in found)


def _one_row(coeffs, horizon):
    """The outcome of max_concurrence on one set and its horizon warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found = max_concurrence(None, horizon, coeffs=coeffs)
        except NUMERICAL_ERRORS as exc:
            found = exc
    return _outcome(found), len(caught)


@pytest.mark.parametrize("budget", [2 ** 15, 6000])
@pytest.mark.parametrize("horizon", [None, 3.0])
def test_batched_search_matches_one_row_calls(monkeypatch, horizon, budget):
    sets = []
    for dims in _BATCH_POINTS:
        coeffs = compute_coefficients(SystemParams.from_dimensionless(*dims))
        sets += [coeffs, coeffs.without_d()]
    sets.insert(3, _BREACH)
    expected = [_one_row(coeffs, horizon) for coeffs in sets]
    assert Propagators([sets[12]], _P0).cond[0] == np.inf  # _EXPM_ROW, without_D: expm

    calls = []  # (sets, samples, whether it raised) per search
    real = concurrence_mod._search

    def spy(rows, *args, **kwargs):
        calls.append([[row.coeffs for row in rows], sum(row.size for row in rows), True])
        found = real(rows, *args, **kwargs)
        calls[-1][2] = False
        return found

    monkeypatch.setattr(concurrence_mod, "_CHUNK_SAMPLES", budget)
    monkeypatch.setattr(concurrence_mod, "_search", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = max_concurrences(sets, horizon)
    assert [_outcome(f) for f in found] == [outcome for outcome, _ in expected]
    assert len(caught) == sum(count for _, count in expected)  # once per row
    if horizon is None:  # raised while planning, before any search
        assert len(calls) == 1  # a clean call makes exactly one search
        probe = compute_coefficients(SystemParams.from_dimensionless(*_BUDGET_PROBE))
        assert not any(probe in batch for batch, _, _ in calls)
        assert "budget" in expected[2][0][1]
    else:  # the breach fails the search, whose halves are searched again down to it
        assert any(_BREACH in batch and len(batch) > 1 and raised for batch, _, raised in calls)
        assert any(_BREACH in batch and len(batch) == 1 for batch, _, _ in calls)
        assert sum(count for _, count in expected) >= 5


_MAGNITUDE = st.floats(0.0, 1e15)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(brackets=st.lists(st.tuples(_MAGNITUDE, _MAGNITUDE), min_size=1, max_size=6),
       center=_MAGNITUDE, freq=st.floats(0.0, 1e3))
def test_refine_terminates_inside_each_bracket(brackets, center, freq):
    lo, hi = np.array([sorted(b) for b in brackets]).T

    def fun(t):
        return np.cos(freq * t) - np.abs(t - center) / 1e15

    taus, values = _refine(lambda t, _active: fun(t), lo, hi, 1e-8)
    assert np.all((lo <= taus) & (taus <= hi))
    assert np.all(values >= np.maximum(fun(lo), fun(hi)))
    assert np.array_equal(values, fun(taus))


@st.composite
def figure_point(draw):
    """(dims, with_d) inside the ranges one of the cmax figure presets spans."""
    specs = preset(draw(st.sampled_from((7, 8, 9, 10))), points=2)
    axis = specs[0].axis
    dims = {axis: draw(st.floats(specs[0].grid[0], specs[0].grid[-1]))}
    for key in specs[0].fixed:
        values = [s.fixed[key] for s in specs]
        dims[key] = draw(st.floats(min(values), max(values)))
    return dims, draw(st.booleans())


def _search_grid(row):
    """The search grid of a planned row, sample by sample."""
    grid = _Grid([row])
    index = np.arange(grid.ends[-1])
    return grid.times(index, grid.row(index))


def _coeffs_at(dims, with_d):
    coeffs = compute_coefficients(SystemParams.from_dimensionless(**dims))
    return coeffs if with_d else coeffs.without_d()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point=figure_point())
def test_max_concurrence_bounds_its_own_grid(point):
    coeffs = _coeffs_at(*point)
    taus = _search_grid(_plan(coeffs, default_horizon(coeffs, prepare_initial("ten"))))
    curve = _Trajectories([coeffs]).concurrence(taus, [taus.size])
    # past the coherence window the grid turns geometric and c_as no longer
    # moves the concurrence by more than 1e-13 (the horizon itself is set
    # exactly, so it may differ from n * dt on a grid with no tail)
    tail = (taus != np.arange(taus.size) * taus[1]) & (taus < taus[-1])
    if tail.any():
        incoherent = evolve_closed(XState(0.0, 0.0, 0.5, 0.5), coeffs, taus[tail])
        assert np.all(np.abs(curve[tail] - incoherent.concurrence) <= 1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, c_max = max_concurrence(None, coeffs=coeffs)
    assert c_max <= 1.0
    assert c_max >= curve.max() or (c_max == 0.0 and curve.max() <= 1e-13)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(point=figure_point(), factors=st.lists(st.floats(0.25, 2.0), min_size=2, max_size=2))
def test_max_concurrence_does_not_drop_as_the_horizon_grows(point, factors):
    coeffs = _coeffs_at(*point)
    horizon = default_horizon(coeffs, prepare_initial("ten"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        shorter, longer = (max_concurrence(None, horizon=f * horizon, coeffs=coeffs)[1]
                           for f in sorted(factors))
    assert longer >= shorter - 1e-12


def _dense_scan_max(coeffs) -> float:
    """Reference maximum for the '10' state, independent of the search:
    max(0, k1) (c_ge = 0 keeps k2 <= 0) sampled uniformly over [0, W] at 400
    points per time scale, W = ln(1e13) / (4 a1), then geometrically up to
    the horizon; positive local maxima within 1e-6 of the best sample are
    polished by bounded Brent to a relative width of 1e-12."""
    w, v = np.linalg.eig(population_generator(coeffs))
    modes = np.linalg.solve(v, prepare_initial("ten").populations)

    def curve(t):
        pops = (v @ (modes[:, None] * np.exp(np.outer(w, t)))).real
        osc = np.exp(-8.0 * coeffs.a1 * t) * np.sin(4.0 * coeffs.d * t) ** 2
        k1 = (np.sqrt((pops[2] - pops[3]) ** 2 + osc)
              - 2.0 * np.sqrt(np.clip(pops[0] * pops[1], 0.0, None)))
        return np.maximum(k1, 0.0)

    scale = 1.0 / (4.0 * coeffs.a1)
    if coeffs.d != 0.0:
        scale = min(scale, math.pi / (2.0 * abs(coeffs.d)))
    horizon = default_horizon(coeffs, prepare_initial("ten"))
    window = min(math.log(1e13) / (4.0 * coeffs.a1), horizon)
    taus = np.append(np.arange(0.0, window, scale / 400.0), window)
    if window < horizon:
        taus = np.concatenate([taus, np.geomspace(window, horizon, 20_000)[1:]])
    values = curve(taus)
    best = values.max()
    inner = np.nonzero((values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
                       & (values[1:-1] > max(best - 1e-6, 0.0)))[0] + 1
    for i in inner:
        lo, hi = taus[i - 1], taus[i + 1]
        res = minimize_scalar(lambda t: -curve(np.array([t]))[0], bounds=(lo, hi),
                              method="bounded",
                              options={"xatol": 1e-12 * max(1.0, hi)})
        best = max(best, -res.fun)
    return best


@settings(max_examples=24, deadline=None, derandomize=True)
@given(point=figure_point())
def test_max_concurrence_matches_dense_scan(point):
    coeffs = _coeffs_at(*point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, c_max = max_concurrence(None, coeffs=coeffs)
    assert abs(c_max - _dense_scan_max(coeffs)) < 1e-12


# --- the search's envelope ------------------------------------------------------

_RATIO = st.floats(-1.2, 1.2)


@st.composite
def searched_set(draw):
    """A coefficient set for the search: a figure point, _BREACH, a set of
    _EXPM_ROW, or random rates, some of them negative, with |d| up to 30 a1."""
    kind = draw(st.sampled_from(("figure", "breach", "expm", "random")))
    if kind == "figure":
        return _coeffs_at(*draw(figure_point()))
    if kind == "breach":
        return _BREACH
    if kind == "expm":
        return _coeffs_at(dict(zip(("z_omega", "a_over_omega", "l_omega"), _EXPM_ROW)),
                          draw(st.booleans()))
    a1 = draw(st.floats(0.05, 1.0))
    a2, b1, b2 = (a1 * draw(_RATIO) for _ in range(3))
    return CoefficientSet(a1, a2, b1, b2, a1 * draw(st.floats(-30.0, 30.0)))


def _searched(sets, horizon):
    """The outcomes of max_concurrences on `sets` and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = max_concurrences(sets, horizon)
    return [_outcome(f) for f in found], len(caught)


_BOUND = _Trajectories.bound


def _halved_bound(self, *args):
    """_Trajectories.bound, halved."""
    return 0.5 * _BOUND(self, *args)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sets=st.lists(searched_set(), min_size=1, max_size=5),
       horizon=st.sampled_from((None, 3.0)))
def test_pruned_search_matches_the_full_search(sets, horizon):
    # an infinite bound prunes nothing: every block is scanned and every
    # bracket refined, which is the search without its envelope
    pruned = _searched(sets, horizon)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Trajectories, "bound",
                      lambda self, sets, t0, t1: np.full(len(sets), math.inf))
        assert _searched(sets, horizon) == pruned


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coeffs=searched_set())
def test_bound_holds_over_blocks_and_brackets(coeffs):
    try:
        row = _plan(coeffs, default_horizon(coeffs, prepare_initial("ten")))
        trajectories = _Trajectories([coeffs])
        taus = _search_grid(row)
        curve = trajectories.concurrence(taus, [taus.size])
    except NUMERICAL_ERRORS:
        return  # a row the search rejects has no envelope to check

    def bound(t0, t1):
        return trajectories.bound(np.zeros(t0.size, dtype=int), t0, t1)

    # a block of _BLOCK samples, with one sample on either side
    block = concurrence_mod._BLOCK
    lo = np.maximum(np.arange(0, taus.size, block) - 1, 0)
    hi = np.minimum(lo + block + (lo > 0), taus.size - 1)
    reach = np.array([curve[a:b + 1].max() for a, b in zip(lo, hi)])
    assert np.all(reach <= bound(taus[lo], taus[hi]))
    # a bracket: the grid sample at its middle and the points between samples
    middle = (taus[:-1] + taus[1:]) / 2.0
    between = trajectories.concurrence(middle, [middle.size])
    brackets = bound(taus[:-2], taus[2:])
    assert np.all(curve[1:-1] <= brackets)
    assert np.all(np.maximum(between[:-1], between[1:]) <= brackets)
    if coeffs == _BREACH or Propagators([coeffs], _P0).cond[0] == np.inf:  # expm
        assert np.all(brackets == math.inf)


def _figure_sets(points):
    """The coefficient sets of every cmax figure-preset row at `points`."""
    sets = []
    for number in (7, 8, 9, 10):
        for spec in preset(number, points=points):
            for value in spec.grid:
                coeffs = _coeffs_at({**spec.fixed, spec.axis: value}, True)
                sets += [coeffs, coeffs.without_d()]
    return sets


def test_a_halved_bound_changes_the_search():
    # the equivalence test above would catch a bound that is too low
    sets = _figure_sets(3)
    found = _searched(sets, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Trajectories, "bound", _halved_bound)
        halved = _searched(sets, None)
    assert halved[0] != found[0]


def test_heavy_row_has_its_bits_in_bounded_memory():
    # 4 094 861 search-grid samples; scanning all of them took 609 MB. Linux
    # keeps a process's peak RSS across exec, so the row runs in a grandchild
    # that a small interpreter starts, not in a child of this large one.
    code = ("import resource\n"
            "from mirroratoms import SystemParams, max_concurrence\n"
            "found = max_concurrence(SystemParams.from_dimensionless(0.01, 0.02, 0.05))\n"
            "print(*found, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(concurrence_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    launch = ("import subprocess, sys\n"
              "print(subprocess.run(sys.argv[1:], capture_output=True, text=True,\n"
              "                     check=True).stdout, end='')\n")
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, check=True, env=env)
    tau_star, c_max, max_rss_kb = done.stdout.split()
    assert (float(tau_star), float(c_max)) == (1.0965929531666019, 0.9999268702887874)
    assert int(max_rss_kb) < 150 * 1024


# (omega*z, a/omega, omega*L) of a row with no proven envelope: its
# eigenbasis has cond(V) = 7.2e4, so its whole grid of 9 628 samples is
# scanned and all of its 87 brackets are refined
_UNPROVEN_ROW = (5.0, 0.1, 0.0246)


@pytest.mark.parametrize("horizon", [None, 3.0])
def test_search_streams_in_bounded_slices(monkeypatch, horizon):
    sets = _figure_sets(3) + [_BREACH]
    for dims in (_EXPM_ROW, _UNPROVEN_ROW):
        coeffs = compute_coefficients(SystemParams.from_dimensionless(*dims))
        sets += [coeffs, coeffs.without_d()]
    assert not _Trajectories([sets[-2]]).provable[0]
    expected = _searched(sets, horizon)
    calls, brackets = [], []  # (stamps, row pieces) per evaluation; brackets per _refine
    evaluate, refine = _Trajectories.concurrence, concurrence_mod._refine

    def spy(self, taus, counts):
        calls.append((taus.size, [n for n in np.asarray(counts).tolist() if n]))
        return evaluate(self, taus, counts)

    def refine_spy(fun, lo, hi, tol):
        brackets.append(lo.size)
        return refine(fun, lo, hi, tol)

    monkeypatch.setattr(_Trajectories, "concurrence", spy)
    monkeypatch.setattr(concurrence_mod, "_refine", refine_spy)
    for chunk in (300, 2 ** 15):
        calls.clear()
        monkeypatch.setattr(concurrence_mod, "_CHUNK_SAMPLES", chunk)
        assert _searched(sets, horizon) == expected
        assert max(stamps for stamps, _ in calls) <= chunk
        assert min(min(pieces) for _, pieces in calls) >= 2  # a 1-column product rounds apart
        if horizon is None:  # the unproven row alone: more brackets than one call holds
            brackets.clear()
            _searched(sets[-2:-1], horizon)
            assert brackets[0] > 300 // (concurrence_mod._SECTIONS + 1)


def _small_process(code: str) -> list:
    """The words `code` prints, run in a grandchild as in the test above."""
    src = str(Path(concurrence_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    launch = ("import subprocess, sys\n"
              "print(subprocess.run(sys.argv[1:], capture_output=True, text=True,\n"
              "                     check=True).stdout, end='')\n")
    return subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=env).stdout.split()


def test_one_search_of_a_whole_figure_stays_in_bounded_memory():
    # figure 7's 1 600 sets go to one max_concurrences call and one search;
    # searching them without slices took 225 MB
    code = ("import resource, warnings\n"
            "from mirroratoms import preset\n"
            "from mirroratoms.sweep import run_sweeps\n"
            "warnings.simplefilter('ignore')\n"
            "run_sweeps(preset(7))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    assert int(_small_process(code)[0]) < 100 * 1024


def test_trajectories_hold_under_a_kilobyte_per_set():
    # figure 9's 7 200 sets go to one search, which holds them all throughout
    sets = []
    for spec in preset(9):
        for value in spec.grid:
            coeffs = compute_coefficients(SystemParams.from_dimensionless(
                **{**spec.fixed, spec.axis: value}))
            sets += [coeffs, coeffs.without_d()]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectories = _Trajectories(sets)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sets) == 7200 and trajectories.provable.all()
    assert held < 1024 * len(sets)


def test_row_without_an_envelope_has_its_bits_in_bounded_memory():
    # 1 193 840 search-grid samples and cond(V) = 6.7e7: no proven envelope,
    # so every sample is scanned and every bracket refined; as whole-row
    # arrays that took 354 MB
    code = ("import resource\n"
            "from mirroratoms import SystemParams, max_concurrence\n"
            "found = max_concurrence(SystemParams.from_dimensionless(0.5, 0.1, 1e-3))\n"
            "print(*found, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    tau_star, c_max, max_rss_kb = _small_process(code)
    assert (float(tau_star), float(c_max)) == (0.0015714874902066846, 0.9997489212647117)
    assert int(max_rss_kb) < 150 * 1024
