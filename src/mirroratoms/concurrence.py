"""Concurrence of the two-atom state, entanglement-generation rate, and the
maximum of concurrence over an evolution.

For X-form states the concurrence reduces to two closed-form candidates
(k1 from the single-excitation block, k2 from the ground/doubly-excited
block); a general 4x4 spin-flip construction is kept as a validation oracle.
"""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from .correlations import CoefficientSet, SystemParams, compute_coefficients
from .errors import ConvergenceError, DomainError
from .evolution import (SAMPLES_PER_SCALE, XState, _PopulationPropagator,
                        _time_scale, default_horizon, prepare_initial,
                        x_concurrence)

# uniform samples allowed over the coherence window, beyond which the
# search raises ConvergenceError rather than truncate its grid
_DENSE_BUDGET = 5_000_000
_TAIL_SAMPLES = 2000
_SECTIONS = 64
_MAX_ROUNDS = 32  # the sectioning reaches its width floor within 12 rounds
TOL_RANGE = (1e-10, 1e-4)  # refinement tolerances max_concurrence accepts

# coupled-basis kets (columns) written in the product basis |00>,|01>,|10>,|11>
_SQ = 1.0 / math.sqrt(2.0)
_COUPLED_TO_PRODUCT = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -_SQ, _SQ, 0.0],
    [0.0, _SQ, _SQ, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

_SPIN_FLIP = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


class ConcurrenceReport:
    """Concurrence candidates k1, k2 and the value max{0, k1, k2} in [0, 1]."""

    __slots__ = ("k1", "k2", "value")

    def __init__(self, k1: float, k2: float, value: float):
        self.k1 = k1
        self.k2 = k2
        self.value = value

    def __repr__(self):
        return f"ConcurrenceReport(k1={self.k1:.6g}, k2={self.k2:.6g}, value={self.value:.6g})"


class GenerationReport:
    """Initial entanglement-generation rate (units of gamma0) and whether
    entanglement is generated near tau = 0 (rate > 0)."""

    __slots__ = ("rate", "generates")

    def __init__(self, rate: float):
        self.rate = rate
        self.generates = rate > 0.0

    def __repr__(self):
        return f"GenerationReport(rate={self.rate:.6g}, generates={self.generates})"


def concurrence_x(state: XState) -> ConcurrenceReport:
    """Closed-form concurrence of an X state: `x_concurrence` of its entries,
    with the state's own tolerance."""
    k1, k2, value = x_concurrence(state.p_gg, state.p_ee, state.p_aa, state.p_ss,
                                  state.c_as, state.c_ge, state.tol)
    return ConcurrenceReport(float(k1), float(k2), float(value))


def to_product_matrix(state: XState) -> np.ndarray:
    """X state as a full 4x4 density matrix in the product basis |00>,|01>,|10>,|11>."""
    rho_c = np.array([
        [state.p_gg, 0.0, 0.0, state.c_ge],
        [0.0, state.p_aa, state.c_as, 0.0],
        [0.0, np.conj(state.c_as), state.p_ss, 0.0],
        [np.conj(state.c_ge), 0.0, 0.0, state.p_ee],
    ], dtype=complex)
    u = _COUPLED_TO_PRODUCT
    return u @ rho_c @ u.T


def concurrence_general(rho: np.ndarray) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix
    (product basis): max{0, l1 - l2 - l3 - l4} with l_i the decreasing
    square roots of the eigenvalues of rho * (sy x sy) rho^* (sy x sy)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise DomainError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise DomainError("density matrix must have unit trace")
    w, u = np.linalg.eigh(rho)
    if w.min() < -1e-10:
        raise DomainError("density matrix must be positive semidefinite")
    # the square roots of eig(rho * flipped) equal the singular values of
    # sqrt(rho) Y sqrt(rho)^*, which avoids losing half the precision to
    # the square root of near-zero eigenvalues
    sqrt_rho = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    roots = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(),
                          compute_uv=False)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def generation_rate(coeffs: CoefficientSet) -> GenerationReport:
    """Initial growth rate of the concurrence from the separable '10' state:
    rate = 4 sqrt(a2^2 + d^2) - 4 sqrt(a1^2 - b1^2)."""
    return GenerationReport(_generation_rate(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.d))


def _generation_rate(a1: float, a2: float, b1: float, d: float) -> float:
    """The rate of `generation_rate` from plain floats; the one implementation
    of the formula."""
    a1_sq, b1_sq = a1 ** 2, b1 ** 2
    disc = a1_sq - b1_sq
    if disc < -1e-12 * max(a1_sq, b1_sq, 1e-300):
        raise DomainError(f"a1^2 - b1^2 = {disc:.3e} < 0; invalid coefficient set")
    return 4.0 * math.hypot(a2, d) - 4.0 * math.sqrt(max(disc, 0.0))


def k1_closed(tau: float, populations, coeffs: CoefficientSet) -> float:
    """Analytic k1 for the '10' initial state, where the coherence is known:
    sqrt((p_aa - p_ss)^2 + sin^2(4 d tau) exp(-8 a1 tau)) - 2 sqrt(p_gg p_ee).

    `populations` is the tuple (p_aa, p_ss, p_gg, p_ee) at time tau.
    """
    p_aa, p_ss, p_gg, p_ee = populations
    osc = math.sin(4.0 * coeffs.d * tau) ** 2 * math.exp(-8.0 * coeffs.a1 * tau)
    return math.sqrt((p_aa - p_ss) ** 2 + osc) - 2.0 * math.sqrt(max(p_gg * p_ee, 0.0))


def _concurrence_on_grid(prop: _PopulationPropagator, initial: XState,
                         coeffs: CoefficientSet, taus: np.ndarray) -> np.ndarray:
    """Concurrence along a closed-form trajectory; InvariantError on a positivity breach."""
    pops = prop.propagate(initial.populations, taus)
    c_as = initial.c_as * np.exp(-4.0 * (coeffs.a1 + 1j * coeffs.d) * taus)
    c_ge = np.abs(initial.c_ge) * np.exp(-4.0 * coeffs.a1 * taus)
    return x_concurrence(*pops, c_as, c_ge, initial.tol)[2]


def _refine(fun, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Maximize `fun` (vectorized over tau) on every bracket [lo[k], hi[k]] at once.

    Each round samples the active brackets at _SECTIONS + 1 evenly spaced
    points, ends included, in one call of `fun` and keeps the two sections
    around each best sample. A bracket stops at width max(tol, 64 ulp(hi)),
    a floor reachable at any magnitude. Returns each bracket's best sample.
    """
    best_t, best_c = np.array(lo, dtype=float), np.full(len(lo), -np.inf)
    active = np.arange(best_t.size)
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            return best_t, best_c
        ts = np.linspace(lo, hi, _SECTIONS + 1, axis=1)
        cs = fun(ts.ravel()).reshape(ts.shape)
        k = np.arange(active.size)
        j = np.argmax(cs, axis=1)  # first maximum: ties go to the smallest tau
        up = cs[k, j] > best_c[active]
        best_t[active[up]], best_c[active[up]] = ts[k, j][up], cs[k, j][up]
        lo, hi = ts[k, np.maximum(j - 1, 0)], ts[k, np.minimum(j + 1, _SECTIONS)]
        going = hi - lo > np.maximum(tol, 64.0 * np.spacing(hi))
        active, lo, hi = active[going], lo[going], hi[going]
    raise ConvergenceError(f"bracket refinement did not converge in {_MAX_ROUNDS} rounds")


def _search_grid(coeffs: CoefficientSet, state0: XState, horizon: float) -> np.ndarray:
    """Search grid on [0, horizon]: the points of linspace(0, horizon, n + 1)
    (SAMPLES_PER_SCALE per time scale) up to the coherence window W, where
    the c_as bound 2|c_as(0)| exp(-4 a1 t) on the concurrence falls to 1e-13,
    but at least one scale; past W, where only the smooth populations
    matter, a geometric tail of _TAIL_SAMPLES points up to the horizon."""
    scale = _time_scale(coeffs, horizon)
    n = max(math.ceil(SAMPLES_PER_SCALE * horizon / scale), 100)
    c0 = max(2.0 * abs(state0.c_as), 1e-13)
    window = math.log(c0 / 1e-13) / (4.0 * coeffs.a1) if coeffs.a1 > 0.0 else horizon
    dt = horizon / n
    m = min(n, math.ceil(max(window, scale) / dt))
    if m > _DENSE_BUDGET:
        raise ConvergenceError(f"coherence window needs {m} samples; budget {_DENSE_BUDGET}")
    taus = np.arange(m + 1) * dt
    if m < n:
        return np.concatenate([taus, np.geomspace(taus[-1], horizon, _TAIL_SAMPLES)[1:]])
    taus[-1] = horizon
    return taus


def max_concurrence(params: SystemParams, horizon: float | None = None,
                    tol: float = 1e-8, *, coeffs: CoefficientSet | None = None,
                    initial="ten") -> tuple[float, float]:
    """Global maximum of the concurrence over [0, horizon] for an evolution
    started from `initial` (default the separable '10' state).

    Scans a grid that is uniform (SAMPLES_PER_SCALE points per
    oscillation/decay scale) over the coherence window and geometric beyond
    it, then sections every local bracket at once down to width `tol`; ties
    resolve to the smallest time. The default horizon outlasts both the
    coherence decay and the population relaxation. Warns when the maximum
    sits at the horizon; raises ConvergenceError when the coherence window
    needs more than _DENSE_BUDGET samples. Returns (tau_star, c_max).
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise DomainError(f"tol must lie in [1e-10, 1e-4], got {tol}")
    if coeffs is None:
        coeffs = compute_coefficients(params)
    state0 = prepare_initial(initial)
    if horizon is None:
        horizon = default_horizon(coeffs, state0)
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise DomainError(f"horizon must be finite and > 0, got {horizon}")

    taus = _search_grid(coeffs, state0, horizon)
    fun = partial(_concurrence_on_grid, _PopulationPropagator(coeffs), state0, coeffs)
    curve = fun(taus)
    inner = np.nonzero((curve[1:-1] >= curve[:-2]) & (curve[1:-1] >= curve[2:])
                       & (curve[1:-1] > 0.0))[0] + 1
    inner = inner[np.diff(inner, prepend=-2) != 1]  # a flat run needs one bracket
    t_ref, c_ref = _refine(fun, taus[inner - 1], taus[inner + 1], tol)
    cand_t = np.concatenate([taus[:1], t_ref, taus[-1:]])
    cand_c = np.concatenate([curve[:1], c_ref, curve[-1:]])
    best = int(np.argmax(cand_c))  # candidates are time-ordered: smallest tau wins
    tau_star, c_max = cand_t[best], cand_c[best]
    if c_max <= 1e-13:  # below the roundoff floor of the k1 formula
        return 0.0, 0.0
    if tau_star >= taus[-2] and curve[-1] >= curve[-2]:
        warnings.warn("concurrence maximum sits at the horizon; extend it",
                      RuntimeWarning)
    return float(tau_star), float(c_max)
