"""X-form density matrix of the two-atom system and its dissipative evolution.

The state lives in the coupled basis {ground, antisymmetric, symmetric,
doubly-excited}. An X-form matrix stays X-form under the dynamics, so the
evolution splits into a constant 4x4 linear system for the populations and
two decoupled scalar equations for the coherences:

    c_as' = -4 (a1 + i d) c_as        c_ge' = -4 a1 c_ge

The closed solver exponentiates the population generator and returns arrays
over the time stamps, checked at once by `x_invariants`, as XState is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .correlations import CoefficientSet
from .errors import ConvergenceError, DegenerateKernelError, DomainError, InvariantError

# hard error at 1e-9 of drift, clamp-to-zero below that (roundoff headroom)
HARD_TOL = 1e-9


_POPULATIONS = ("p_gg", "p_ee", "p_aa", "p_ss")
# x_invariants' failure messages in check order; a population has two checks
_X_CHECKS = (*((f"population {name} is not finite", f"population {name} = {{p}} below -{{tol:g}}")
               for name in _POPULATIONS),
             "coherence c_as is not finite", "coherence c_ge is not finite",
             "trace deviates from 1 by {drift:.3e}", "coherence c_as violates |c|^2 <= p_aa*p_ss",
             "coherence c_ge violates |c|^2 <= p_gg*p_ee")


def x_invariants(p_gg, p_ee, p_aa, p_ss, c_as, c_ge, tol):
    """The checks of an XState, elementwise over arrays of X-state entries
    (scalars are one state), in order: each population finite and >= -tol, each
    coherence finite, then, with negative populations clamped to 0, the trace
    within tol of 1 and |c_as|^2 <= p_aa p_ss + tol, |c_ge|^2 <= p_gg p_ee + tol
    (squares are products, as in x_concurrence). Returns the clamped populations
    (4, n) and the coherences as complex arrays; InvariantError otherwise, with
    the message of the first failing state's first failing check."""
    pops = np.array([p_gg, p_ee, p_aa, p_ss], dtype=float).reshape(4, -1)
    coh = np.array([c_as, c_ge], dtype=complex).reshape(2, -1)
    held = np.where(pops < 0.0, 0.0, pops)
    with np.errstate(invalid="ignore", over="ignore"):
        drift = held[0] + held[1] + held[2] + held[3] - 1.0
        mod = np.hypot(coh.real, coh.imag)
        failing = np.concatenate([  # one row per entry of _X_CHECKS
            ~(np.isfinite(pops) & (pops >= -tol)), ~np.isfinite(coh), [np.abs(drift) > tol],
            mod * mod > held[2::-2] * held[3::-2] + tol])  # (aa, gg) * (ss, ee)
    if not failing.any():
        return held, coh[0], coh[1]
    i = int(np.argmax(failing.any(axis=0)))
    k = int(np.argmax(failing[:, i]))
    message, p = _X_CHECKS[k], float(pops[min(k, 3), i])
    if k < 4:  # a population that is not finite, or finite and below -tol
        message = message[math.isfinite(p)]
    raise InvariantError(message.format(p=p, tol=tol, drift=float(drift[i])))


@dataclass(frozen=True)
class XState:
    """Two-atom X-form density matrix in the coupled basis.

    Populations p_gg, p_ee, p_aa, p_ss plus the two independent coherences
    c_as (antisymmetric/symmetric) and c_ge (ground/doubly-excited); the
    conjugate entries are implied. Construction (`x_invariants`) validates
    trace, clamps populations that are negative within `tol`, and rejects
    states whose coherences exceed the positivity bound by more than `tol`.
    """

    p_gg: float
    p_ee: float
    p_aa: float
    p_ss: float
    c_as: complex = 0.0
    c_ge: complex = 0.0
    tol: float = field(default=HARD_TOL, compare=False, repr=False)

    def __post_init__(self):
        held, c_as, c_ge = x_invariants(self.p_gg, self.p_ee, self.p_aa, self.p_ss,
                                        self.c_as, self.c_ge, self.tol)
        for name, value in zip((*_POPULATIONS, "c_as", "c_ge"),
                               (*held[:, 0].tolist(), complex(c_as[0]), complex(c_ge[0]))):
            object.__setattr__(self, name, value)

    @property
    def trace(self) -> float:
        return self.p_gg + self.p_ee + self.p_aa + self.p_ss

    @property
    def populations(self) -> np.ndarray:
        """Populations as a vector in the internal order (gg, ee, aa, ss)."""
        return np.array([self.p_gg, self.p_ee, self.p_aa, self.p_ss])


@dataclass(frozen=True)
class EvolutionResult:
    """A trajectory as arrays over strictly increasing proper-time stamps (in
    1/gamma0): populations of shape (4, n) in the order (gg, ee, aa, ss),
    coherences and concurrence. `states` views the stamps as XStates of
    tolerance `tol`, built on first use."""

    times: np.ndarray
    populations: np.ndarray
    c_as: np.ndarray
    c_ge: np.ndarray
    concurrence: np.ndarray
    tol: float = field(default=HARD_TOL, compare=False, repr=False)

    @cached_property
    def states(self) -> tuple:
        return tuple(XState(*p, c_as=a, c_ge=g, tol=self.tol) for p, a, g in
                     zip(self.populations.T.tolist(), self.c_as.tolist(), self.c_ge.tolist()))


# |10> = (|S> + |A>)/sqrt(2): equal populations with full coherence
_TEN = XState(p_gg=0.0, p_ee=0.0, p_aa=0.5, p_ss=0.5, c_as=0.5)


def prepare_initial(label) -> XState:
    """The paper's initial state 'ten' (atom 1 excited, atom 2 ground),
    built once; DomainError for any other label."""
    if not isinstance(label, str) or label != "ten":
        raise DomainError(f"unknown initial state label {label!r}")
    return _TEN


def population_generator(coeffs: CoefficientSet) -> np.ndarray:
    """Constant generator M of the population system p' = M p, order (gg, ee, aa, ss).

    Columns sum to zero (trace preservation); the coherent coupling d does
    not enter the populations at all.
    """
    return population_generators([coeffs])[0]


def population_generators(coeff_sets) -> np.ndarray:
    """The generators of `population_generator` for a sequence of coefficient
    sets, stacked into shape (n, 4, 4)."""
    return np.array([_generator_entries(c.a1, c.a2, c.b1, c.b2) for c in coeff_sets],
                    dtype=float).reshape(-1, 4, 4)


def _generator_entries(a1: float, a2: float, b1: float, b2: float) -> tuple:
    up_a = 2.0 * (a1 - b1 - a2 + b2)     # absorption through the antisymmetric channel
    up_s = 2.0 * (a1 - b1 + a2 - b2)     # absorption through the symmetric channel
    down_a = 2.0 * (a1 + b1 - a2 - b2)   # emission, antisymmetric channel
    down_s = 2.0 * (a1 + b1 + a2 + b2)   # emission, symmetric channel
    return (-4.0 * (a1 - b1), 0.0, down_a, down_s,
            0.0, -4.0 * (a1 + b1), up_a, up_s,
            up_a, down_a, -4.0 * (a1 - a2), 0.0,
            up_s, down_s, 0.0, -4.0 * (a1 + a2))


class Propagators:
    """Eigen-decompositions m = v diag(w) v^-1 of stacked population
    generators, from one stacked call each of eig, cond and inv, with the mode
    amplitudes v^-1 p0 computed once per set; `cond`, the 2-norm condition
    number of a set's `v`, is inf where it is too ill-conditioned to use
    (possible at near-degenerate sets) and scaling-and-squaring takes over.
    LAPACK factors every matrix of a stack on its own, so each set gets the
    bits of a call on it alone, once its dtype is restored: the stack's
    eigenpairs are complex when any matrix has complex eigenvalues, and, as
    eig does for one matrix, a set whose eigenvalues are all real (`real`)
    keeps their real parts (cond and inv then run on real matrices), in
    views of the stacks with the strides of its own call's (`modes`)."""

    def __init__(self, coeff_sets, p0: np.ndarray):
        self.p0, self.m = p0, population_generators(coeff_sets)
        self.w, self.v = np.linalg.eig(self.m)
        self.real = (self.w.imag == 0.0).all(axis=1)
        self.cond = np.full(len(self.m), math.inf)
        self.amplitudes = np.zeros_like(self.w)
        for real in (True, False):
            rows = np.flatnonzero(self.real == real)
            if rows.size:
                vs = self.v[rows].real if real else self.v[rows]
                conds = np.linalg.cond(vs)
                fine = conds < 1e12
                self.cond[rows[fine]] = conds[fine]
                self.amplitudes[rows[fine]] = np.linalg.inv(vs[fine]) @ p0

    def modes(self, i: int, taus: np.ndarray) -> tuple:
        """Set i's eigenvectors `v` and its eigenmode amplitudes at each tau,
        shape (4, len(taus)), whose product is the populations; real where its
        spectrum is, in views of the stacks. Eigenbasis only."""
        real = self.real[i]
        w, v, amplitudes = [x[i].real if real else x[i] for x in (self.w, self.v, self.amplitudes)]
        modes = w[:, None] * taus  # exponentiated and scaled in place
        return v, np.multiply(amplitudes[:, None], np.exp(modes, out=modes), out=modes)

    def propagate(self, i: int, taus: np.ndarray) -> np.ndarray:
        """Set i's populations at each tau, shape (4, len(taus))."""
        if self.cond[i] < math.inf:
            v, modes = self.modes(i, taus)
            return (v @ modes).real
        import scipy.linalg  # deferred: only this fallback needs scipy
        out = np.empty((4, taus.size))
        for k, t in enumerate(taus):
            out[:, k] = scipy.linalg.expm(self.m[i] * t) @ self.p0
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


def x_concurrence(p_gg, p_ee, p_aa, p_ss, c_as, c_ge, tol):
    """Concurrence of X states, elementwise over arrays of their entries:
    the candidates k1, k2 and the value max{0, k1, k2} clipped to [0, 1].

    k1 = sqrt((p_aa - p_ss)^2 + 4 Im(c_as)^2) - 2 sqrt(p_gg p_ee)
    k2 = 2 |c_ge| - sqrt((p_aa + p_ss)^2 - 4 Re(c_as)^2)

    Squares are products x * x (correctly rounded; libm's pow(x, 2) is not
    always) and a complex c_ge's modulus is hypot, so an element has the
    same bits in any array. A coherence excess of eps within a state's tolerance `tol` can
    push the k2 radicand to -4 eps; below -4 tol it raises InvariantError.
    """
    p_gg, p_ee, p_aa, p_ss = (np.asarray(p, dtype=float) for p in (p_gg, p_ee, p_aa, p_ss))
    c_as, c_ge = np.asarray(c_as), np.asarray(c_ge)
    mod_ge = np.hypot(c_ge.real, c_ge.imag) if np.iscomplexobj(c_ge) else np.abs(c_ge)
    diff, total, re, im = p_aa - p_ss, p_aa + p_ss, c_as.real, c_as.imag
    k1 = np.sqrt(diff * diff + 4.0 * (im * im)) - 2.0 * np.sqrt(np.maximum(p_gg * p_ee, 0.0))
    rad2 = total * total - 4.0 * (re * re)
    breach = rad2 < -4.0 * tol
    if breach.any():
        raise InvariantError(f"negative k2 radicand {rad2[breach][0]:.3e}; "
                             "upstream invariant breach")
    k2 = 2.0 * mod_ge - np.sqrt(np.maximum(rad2, 0.0))
    return k1, k2, np.clip(np.maximum(k1, k2), 0.0, 1.0)


def _assemble(times, pops, c_as, c_ge, state_tol=HARD_TOL) -> EvolutionResult:
    held, c_as, c_ge = x_invariants(*pops, c_as, c_ge, state_tol)
    conc = x_concurrence(*held, c_as, c_ge, state_tol)[2]
    return EvolutionResult(times, held, c_as, c_ge, conc, tol=state_tol)


def evolve_closed(initial: XState, coeffs: CoefficientSet, times) -> EvolutionResult:
    """Exact evolution: matrix exponential for the populations, analytic
    exponentials for the coherences.

    Raises InvariantError if any emitted state violates positivity beyond
    HARD_TOL, which signals an inconsistent coefficient set.
    """
    t = _check_times(times)
    props = Propagators([coeffs], initial.populations)
    if props.cond[0] < math.inf:
        # One 4x4 @ 4x1 product per stamp, stacked: BLAS may round a single
        # 4x4 @ 4xN product differently with N, and a stamp must give the same
        # bytes whichever other stamps are requested.
        v, modes = props.modes(0, t)
        pops = (v @ modes.T[:, :, None])[..., 0].T.real
    else:
        pops = props.propagate(0, t)
    c_as = initial.c_as * np.exp(-4.0 * (coeffs.a1 + 1j * coeffs.d) * t)
    c_ge = initial.c_ge * np.exp(-4.0 * coeffs.a1 * t)
    return _assemble(t, pops, c_as, c_ge)


def _null_populations(coeff_sets, ms) -> np.ndarray:
    """The trace-one null vectors (n, 4) of the stacked generators `ms` of
    `coeff_sets`, the stationary populations, unchecked as states.
    DomainError unless every a1 > 0; DegenerateKernelError for the first
    generator whose null space is not one-dimensional or whose null vector
    is traceless, rather than guess."""
    if any(c.a1 <= 0.0 for c in coeff_sets):
        raise DomainError("steady state requires a1 > 0")
    _, s, vt = np.linalg.svd(ms)
    null_dim = np.sum(s <= 1e-10 * s[:, :1], axis=1)
    if (null_dim != 1).any():
        raise DegenerateKernelError("population generator has a "
                                    f"{null_dim[null_dim != 1][0]}-dimensional null space")
    v = vt[:, -1]
    total = v.sum(axis=1)
    if (np.abs(total) < 1e-8).any():
        raise DegenerateKernelError("null vector is traceless; cannot normalize")
    return v / total[:, None]


def _relaxation_rates(ms) -> np.ndarray:
    """The smallest nonzero decay rate of each stacked generator, inf where
    none decays."""
    rates = np.abs(np.linalg.eigvals(ms).real)
    floor = 1e-10 * np.maximum(rates.max(axis=1), 1e-300)
    return np.where(rates > floor[:, None], rates, math.inf).min(axis=1)


COHERENCE_FLOOR = 1e-6
POPULATION_FLOOR = 1e-8


def default_horizon(coeffs: CoefficientSet, initial: XState) -> float:
    """Horizon after which the coherences have fallen below COHERENCE_FLOOR
    and the populations sit within POPULATION_FLOOR of the steady state."""
    return default_horizons([coeffs], initial)[0]


def default_horizons(coeff_sets, initial: XState) -> list:
    """`default_horizon` of each coefficient set, from one stacked call each
    of svd and eigvals; raises the error of the first check any set fails,
    in the order the one-set call makes them."""
    ms = population_generators(coeff_sets)
    p = _null_populations(coeff_sets, ms)
    zero = np.zeros(len(p))
    held = x_invariants(*p.T, zero, zero, HARD_TOL)[0]  # the checks of an XState
    gaps = np.abs(initial.populations - held.T).sum(axis=1)
    rates = _relaxation_rates(ms)
    if ((gaps > POPULATION_FLOOR) & (rates == math.inf)).any():
        raise DegenerateKernelError("population generator has no decaying mode")
    c0 = max(abs(initial.c_as), abs(initial.c_ge))
    horizons = []
    for coeffs, gap, rate in zip(coeff_sets, gaps.tolist(), rates.tolist()):
        t_coh = t_pop = 0.0
        if c0 > COHERENCE_FLOOR and coeffs.a1 > 0.0:
            t_coh = math.log(c0 / COHERENCE_FLOOR) / (4.0 * coeffs.a1)
        if gap > POPULATION_FLOOR:
            t_pop = math.log(gap / POPULATION_FLOOR) / rate
        horizons.append(max(t_coh, t_pop, 1.0))
    return horizons


SAMPLES_PER_SCALE = 40  # of default_time_grid and of max_concurrence's search grid
MAX_GRID_POINTS = 200_000  # default_time_grid raises beyond this budget


def _time_scale(coeffs: CoefficientSet, t_end: float) -> float:
    """Shorter of the coherent-oscillation period pi/(2|d|) and the decay
    scale 1/(4 a1), capped at t_end; grids sample it SAMPLES_PER_SCALE times."""
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


def default_time_grid(coeffs: CoefficientSet, t_end: float) -> np.ndarray:
    """Hybrid geometric+linear grid on [0, t_end].

    The linear spacing resolves the shorter of the coherent-oscillation
    period pi/(2|d|) and the decay scale 1/(4 a1) with SAMPLES_PER_SCALE
    points; a short geometric prefix refines tau = 0. Raises
    ConvergenceError when that spacing needs more than MAX_GRID_POINTS
    points, rather than coarsen the grid until the oscillation aliases.
    """
    if t_end <= 0.0 or not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    dt = _time_scale(coeffs, t_end) / SAMPLES_PER_SCALE
    if t_end / dt > MAX_GRID_POINTS:
        raise ConvergenceError(f"time grid needs {t_end / dt:.4g} points to resolve "
                               f"its time scale; budget {MAX_GRID_POINTS}")
    linear = np.arange(0.0, t_end, dt)
    geometric = dt * 2.0 ** -np.arange(1, 8, dtype=float)
    grid = np.unique(np.concatenate([linear, geometric, [t_end]]))
    return grid
