"""X-form density matrix of the two-atom system and its dissipative evolution.

The state lives in the coupled basis {ground, antisymmetric, symmetric,
doubly-excited}. An X-form matrix stays X-form under the dynamics, so the
evolution splits into a constant 4x4 linear system for the populations and
two decoupled scalar equations for the coherences:

    c_as' = -4 (a1 + i d) c_as        c_ge' = -4 a1 c_ge

The closed solver exponentiates the population generator; the fixed-step
4th-order integrator is kept as an independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .correlations import CoefficientSet
from .errors import ConvergenceError, DegenerateKernelError, DomainError, InvariantError

# hard error at 1e-9 of drift, clamp-to-zero below that (roundoff headroom)
HARD_TOL = 1e-9

_STEP_BUDGET = 2 ** 20
_NUMERIC_STAMPS = 200  # output intervals of the fixed-step integrator


@dataclass(frozen=True)
class XState:
    """Two-atom X-form density matrix in the coupled basis.

    Populations p_gg, p_ee, p_aa, p_ss plus the two independent coherences
    c_as (antisymmetric/symmetric) and c_ge (ground/doubly-excited); the
    conjugate entries are implied. Construction validates trace, clamps
    populations that are negative within `tol`, and rejects states whose
    coherences exceed the positivity bound by more than `tol`.
    """

    p_gg: float
    p_ee: float
    p_aa: float
    p_ss: float
    c_as: complex = 0.0
    c_ge: complex = 0.0
    tol: float = field(default=HARD_TOL, compare=False, repr=False)

    def __post_init__(self):
        for name in ("p_gg", "p_ee", "p_aa", "p_ss"):
            p = float(getattr(self, name))
            if not math.isfinite(p):
                raise InvariantError(f"population {name} is not finite")
            if p < -self.tol:
                raise InvariantError(f"population {name} = {p} below -{self.tol:g}")
            object.__setattr__(self, name, 0.0 if p < 0.0 else p)
        object.__setattr__(self, "c_as", complex(self.c_as))
        object.__setattr__(self, "c_ge", complex(self.c_ge))
        if abs(self.trace - 1.0) > self.tol:
            raise InvariantError(f"trace deviates from 1 by {self.trace - 1.0:.3e}")
        if abs(self.c_as) ** 2 > self.p_aa * self.p_ss + self.tol:
            raise InvariantError("coherence c_as violates |c|^2 <= p_aa*p_ss")
        if abs(self.c_ge) ** 2 > self.p_gg * self.p_ee + self.tol:
            raise InvariantError("coherence c_ge violates |c|^2 <= p_gg*p_ee")

    @property
    def trace(self) -> float:
        return self.p_gg + self.p_ee + self.p_aa + self.p_ss

    @property
    def populations(self) -> np.ndarray:
        """Populations as a vector in the internal order (gg, ee, aa, ss)."""
        return np.array([self.p_gg, self.p_ee, self.p_aa, self.p_ss])


@dataclass(frozen=True)
class StateDerivative:
    """Time derivative of an XState; same fields, no normalization constraints."""

    p_gg: float
    p_ee: float
    p_aa: float
    p_ss: float
    c_as: complex
    c_ge: complex


@dataclass(frozen=True)
class EvolutionResult:
    """A trajectory: strictly increasing proper-time stamps with one state
    and one concurrence value per stamp (times in units of 1/gamma0)."""

    times: np.ndarray
    states: tuple
    concurrence: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "concurrence", np.asarray(self.concurrence, dtype=float))
        object.__setattr__(self, "states", tuple(self.states))
        if t.ndim != 1 or t.size == 0:
            raise DomainError("times must be a nonempty 1-d sequence")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if len(self.states) != t.size or self.concurrence.size != t.size:
            raise DomainError("one state and one concurrence value per stamp required")


def prepare_initial(label) -> XState:
    """Initial states: 'ten' (atom 1 excited, atom 2 ground), the Bell basis
    states 'bell_A'/'bell_S', or a custom XState (validated on construction)."""
    if isinstance(label, XState):
        return label
    if label == "ten":
        # |10> = (|S> + |A>)/sqrt(2): equal populations with full coherence
        return XState(p_gg=0.0, p_ee=0.0, p_aa=0.5, p_ss=0.5, c_as=0.5)
    if label == "bell_A":
        return XState(p_gg=0.0, p_ee=0.0, p_aa=1.0, p_ss=0.0)
    if label == "bell_S":
        return XState(p_gg=0.0, p_ee=0.0, p_aa=0.0, p_ss=1.0)
    raise DomainError(f"unknown initial state label {label!r}")


def population_generator(coeffs: CoefficientSet) -> np.ndarray:
    """Constant generator M of the population system p' = M p, order (gg, ee, aa, ss).

    Columns sum to zero (trace preservation); the coherent coupling d does
    not enter the populations at all.
    """
    a1, a2, b1, b2 = coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2
    up_a = 2.0 * (a1 - b1 - a2 + b2)     # absorption through the antisymmetric channel
    up_s = 2.0 * (a1 - b1 + a2 - b2)     # absorption through the symmetric channel
    down_a = 2.0 * (a1 + b1 - a2 - b2)   # emission, antisymmetric channel
    down_s = 2.0 * (a1 + b1 + a2 + b2)   # emission, symmetric channel
    return np.array([
        [-4.0 * (a1 - b1), 0.0, down_a, down_s],
        [0.0, -4.0 * (a1 + b1), up_a, up_s],
        [up_a, down_a, -4.0 * (a1 - a2), 0.0],
        [up_s, down_s, 0.0, -4.0 * (a1 + a2)],
    ])


def rhs(state: XState, coeffs: CoefficientSet) -> StateDerivative:
    """Right-hand side of the master equation restricted to the X form."""
    m = population_generator(coeffs)
    dp = m @ state.populations
    return StateDerivative(
        p_gg=dp[0], p_ee=dp[1], p_aa=dp[2], p_ss=dp[3],
        c_as=-4.0 * (coeffs.a1 + 1j * coeffs.d) * state.c_as,
        c_ge=-4.0 * coeffs.a1 * state.c_ge,
    )


class _PopulationPropagator:
    """Eigen-decomposition of the population generator, reused across stamps.

    Falls back to scaling-and-squaring if the eigenbasis is ill-conditioned
    (possible at near-degenerate coefficient sets).
    """

    def __init__(self, coeffs: CoefficientSet):
        self.m = population_generator(coeffs)
        w, v = np.linalg.eig(self.m)
        self._diagonalizable = np.linalg.cond(v) < 1e12
        if self._diagonalizable:
            self.w = w
            self.v = v
            self.vinv = np.linalg.inv(v)

    def modes(self, p0: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Eigenmode amplitudes of the populations at each tau, shape
        (4, len(taus)); the populations are `v` applied to them. Eigenbasis only."""
        return (self.vinv @ p0)[:, None] * np.exp(np.outer(self.w, taus))

    def propagate(self, p0: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Populations at each tau, shape (4, len(taus))."""
        if self._diagonalizable:
            out = (self.v @ self.modes(p0, taus)).real
        else:
            out = np.empty((4, taus.size))
            for i, t in enumerate(taus):
                out[:, i] = scipy.linalg.expm(self.m * t) @ p0
        return out


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("times must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
        raise DomainError("times must be nonnegative and strictly increasing")
    return t


def _assemble(times, pops, c_as, c_ge, state_tol=HARD_TOL) -> EvolutionResult:
    from .concurrence import concurrence_x  # deferred: avoids an import cycle

    states = []
    for i in range(times.size):
        states.append(XState(p_gg=pops[0, i], p_ee=pops[1, i],
                             p_aa=pops[2, i], p_ss=pops[3, i],
                             c_as=c_as[i], c_ge=c_ge[i], tol=state_tol))
    conc = np.array([concurrence_x(s).value for s in states])
    return EvolutionResult(times=times, states=states, concurrence=conc)


def evolve_closed(initial: XState, coeffs: CoefficientSet, times) -> EvolutionResult:
    """Exact evolution: matrix exponential for the populations, analytic
    exponentials for the coherences.

    Raises InvariantError if any emitted state violates positivity beyond
    HARD_TOL, which signals an inconsistent coefficient set.
    """
    t = _check_times(times)
    prop = _PopulationPropagator(coeffs)
    if prop._diagonalizable:
        # One 4x4 @ 4x1 product per stamp, stacked: BLAS may round a single
        # 4x4 @ 4xN product differently with N, and a stamp must give the same
        # bytes whichever other stamps are requested.
        modes = prop.modes(initial.populations, t)
        pops = (prop.v @ modes.T[:, :, None])[..., 0].T.real
    else:
        pops = prop.propagate(initial.populations, t)
    c_as = initial.c_as * np.exp(-4.0 * (coeffs.a1 + 1j * coeffs.d) * t)
    c_ge = initial.c_ge * np.exp(-4.0 * coeffs.a1 * t)
    return _assemble(t, pops, c_as, c_ge)


def _rk4_step_operator(gen: np.ndarray, h: float) -> np.ndarray:
    """One-step map of classic fixed-step RK4 for the linear system y' = G y:
    the RK4 stage combination collapses to the degree-4 Taylor polynomial."""
    hg = h * gen
    term = np.eye(gen.shape[0], dtype=complex)
    out = term.copy()
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ hg / k
        out += term
    return out


def evolve_numeric(initial: XState, coeffs: CoefficientSet, t_end: float,
                   tol: float = 1e-9) -> EvolutionResult:
    """Independent oracle: classic fixed-step RK4, step-halved until two
    successive refinements agree to `tol` in max norm at 201 output stamps."""
    if not (1e-12 <= tol <= 1e-4):
        raise DomainError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    if t_end <= 0.0 or not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")

    gen = np.zeros((6, 6), dtype=complex)
    gen[:4, :4] = population_generator(coeffs)
    gen[4, 4] = -4.0 * (coeffs.a1 + 1j * coeffs.d)
    gen[5, 5] = -4.0 * coeffs.a1
    y0 = np.array([initial.p_gg, initial.p_ee, initial.p_aa, initial.p_ss,
                   initial.c_as, initial.c_ge], dtype=complex)

    times = np.linspace(0.0, t_end, _NUMERIC_STAMPS + 1)
    prev = None
    n = _NUMERIC_STAMPS
    while True:
        if n > _STEP_BUDGET:
            raise ConvergenceError(
                f"step-count budget exceeded at {n} steps without reaching tol={tol:g}")
        step = _rk4_step_operator(gen, t_end / n)
        sub = n // _NUMERIC_STAMPS
        snaps = np.empty((_NUMERIC_STAMPS + 1, 6), dtype=complex)
        y = y0.copy()
        snaps[0] = y
        with np.errstate(over="ignore", invalid="ignore"):
            # a step too coarse for the fastest rate may blow up; the halving
            # ladder recovers, so overflow here is not an error
            for i in range(_NUMERIC_STAMPS):
                for _ in range(sub):
                    y = step @ y
                snaps[i + 1] = y
            if prev is not None and np.max(np.abs(snaps - prev)) < tol:
                break
        prev = snaps
        n *= 2

    pops = snaps[:, :4].real.T
    return _assemble(times, pops, snaps[:, 4], snaps[:, 5],
                     state_tol=max(HARD_TOL, 10.0 * tol))


def steady_state(coeffs: CoefficientSet) -> XState:
    """Unique trace-one stationary state of the population system, coherences zero.

    Physically the product Gibbs state at the Unruh temperature, with the
    excited/ground ratio set by acceleration alone. Raises
    DegenerateKernelError when the generator's null space is not
    one-dimensional (a1 = |a2| pathologies) instead of guessing.
    """
    if coeffs.a1 <= 0.0:
        raise DomainError("steady state requires a1 > 0")
    m = population_generator(coeffs)
    _, s, vt = np.linalg.svd(m)
    null_dim = int(np.sum(s <= 1e-10 * s[0]))
    if null_dim != 1:
        raise DegenerateKernelError(
            f"population generator has a {null_dim}-dimensional null space")
    v = vt[-1]
    total = v.sum()
    if abs(total) < 1e-8:
        raise DegenerateKernelError("null vector is traceless; cannot normalize")
    p = v / total
    return XState(p_gg=p[0], p_ee=p[1], p_aa=p[2], p_ss=p[3])


def slowest_relaxation_rate(coeffs: CoefficientSet) -> float:
    """Smallest nonzero decay rate of the population generator."""
    w = np.linalg.eigvals(population_generator(coeffs))
    rates = np.abs(w.real)
    nonzero = rates[rates > 1e-10 * max(rates.max(), 1e-300)]
    if nonzero.size == 0:
        raise DegenerateKernelError("population generator has no decaying mode")
    return float(nonzero.min())


def default_horizon(coeffs: CoefficientSet, initial: XState,
                    coherence_floor: float = 1e-6,
                    population_floor: float = 1e-8) -> float:
    """Horizon after which the coherences have fallen below `coherence_floor`
    and the populations sit within `population_floor` of the steady state."""
    t_coh = 0.0
    c0 = max(abs(initial.c_as), abs(initial.c_ge))
    if c0 > coherence_floor and coeffs.a1 > 0.0:
        t_coh = math.log(c0 / coherence_floor) / (4.0 * coeffs.a1)
    gap = np.abs(initial.populations - steady_state(coeffs).populations).sum()
    t_pop = 0.0
    if gap > population_floor:
        t_pop = math.log(gap / population_floor) / slowest_relaxation_rate(coeffs)
    return max(t_coh, t_pop, 1.0)


def _time_scale(coeffs: CoefficientSet, t_end: float) -> float:
    """Shorter of the coherent-oscillation period pi/(2|d|) and the decay
    scale 1/(4 a1), capped at t_end; grids sample it `samples_per_scale` times."""
    scale = t_end
    if coeffs.d != 0.0:
        scale = min(scale, math.pi / (2.0 * abs(coeffs.d)))
    if coeffs.a1 > 0.0:
        scale = min(scale, 1.0 / (4.0 * coeffs.a1))
    return scale


def tau_horizon(coeffs: CoefficientSet) -> float:
    """End of the default concurrence time series, 6/(4 a1): the oscillating
    coherence term has decayed to exp(-6) of its start."""
    if coeffs.a1 <= 0.0:
        raise DomainError("evolution requires a1 > 0")
    return 6.0 / (4.0 * coeffs.a1)


def default_time_grid(coeffs: CoefficientSet, t_end: float,
                      samples_per_scale: int = 40,
                      max_points: int = 200_000) -> np.ndarray:
    """Hybrid geometric+linear grid on [0, t_end].

    The linear spacing resolves the shorter of the coherent-oscillation
    period pi/(2|d|) and the decay scale 1/(4 a1) with at least
    `samples_per_scale` points; a short geometric prefix refines tau = 0.
    """
    if t_end <= 0.0 or not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    dt = _time_scale(coeffs, t_end) / samples_per_scale
    if t_end / dt > max_points:
        warnings.warn("time grid truncated to max_points; oscillations may alias",
                      RuntimeWarning)
        dt = t_end / max_points
    linear = np.arange(0.0, t_end, dt)
    geometric = dt * 2.0 ** -np.arange(1, 8, dtype=float)
    grid = np.unique(np.concatenate([linear, geometric, [t_end]]))
    return grid
