"""Independent reference implementations the tests check the package against:
a fixed-step RK4 integrator of the master equation, the spin-flip
concurrence of a general two-qubit density matrix, the analytic k1 of the
'10' state, and a numerical Fourier transform of the image part of the
Wightman function. None of them runs on the package's command path.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from mirroratoms.correlations import CoefficientSet, SystemParams
from mirroratoms.errors import ConvergenceError, DomainError
from mirroratoms.evolution import (HARD_TOL, EvolutionResult, XState, _assemble,
                                   population_generator)

# --- fixed-step RK4 ------------------------------------------------------------

_STEP_BUDGET = 2 ** 20
_NUMERIC_STAMPS = 200  # output intervals of the fixed-step integrator


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


# --- spin-flip concurrence -----------------------------------------------------

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


# --- analytic k1 of the '10' state ------------------------------------------------

def k1_closed(tau: float, populations, coeffs: CoefficientSet) -> float:
    """Analytic k1 for the '10' initial state, where the coherence is known:
    sqrt((p_aa - p_ss)^2 + sin^2(4 d tau) exp(-8 a1 tau)) - 2 sqrt(p_gg p_ee).

    `populations` is the tuple (p_aa, p_ss, p_gg, p_ee) at time tau.
    """
    p_aa, p_ss, p_gg, p_ee = populations
    osc = math.sin(4.0 * coeffs.d * tau) ** 2 * math.exp(-8.0 * coeffs.a1 * tau)
    return math.sqrt((p_aa - p_ss) ** 2 + osc) - 2.0 * math.sqrt(max(p_gg * p_ee, 0.0))


# --- Fourier transform of the image Wightman function ------------------------------
#
# The mirror-image contribution to the same-atom spectrum must come out as
#
#     -(lam/4pi) (coth(pi*lam/a) + 1) f(lam, z).
#
# On the worldline the image kernel depends only on the proper-time lag u,
#
#     W_img(u) = (1/4pi^2) / [ (4/a^2) sinh^2(a u / 2) - 4 z^2 ],
#
# with light-cone poles at u = +/- (2/a) asinh(a z). The standard prescription
# shifts the lag into the lower half plane, u -> u - i*eps, which moves the
# poles off the integration path; the transform is evaluated for a decreasing
# schedule of regulators and Richardson-extrapolated to eps -> 0.

# exp(-a*T) < 1e-10 makes the truncated tail negligible at the 1e-2 target
_TAIL_LOG = math.log(1e10) + 5.0
_DEFAULT_EPS_STEPS = (0.1, 0.05, 0.025, 0.0125)


def default_epsilon_schedule(accel: float) -> list[float]:
    """Regulator schedule {0.1, 0.05, 0.025, 0.0125}/a."""
    if accel <= 0.0:
        raise DomainError("epsilon schedule needs accel > 0")
    return [e / accel for e in _DEFAULT_EPS_STEPS]


def image_wightman_ft_oracle(lam: float, params: SystemParams,
                             epsilon_schedule: Sequence[float] | None = None,
                             *, window: float | None = None,
                             tol: float = 1e-2,
                             quad_limit: int = 400) -> float:
    """Boundary correction to the same-atom spectrum at frequency lam.

    Integrates exp(i*lam*u) * W_img(u - i*eps) over |u| <= window for each
    regulator in the schedule (adaptive quadrature with a breakpoint at the
    light-cone peak), then applies two-point Richardson steps in eps. Raises
    ConvergenceError when successive extrapolants differ by more than tol
    (relative). The window defaults to the proper-time lag at which the
    integrand's exp(-a|u|) envelope has decayed below 1e-10.
    """
    a, z = params.accel, params.z
    if a <= 0.0:
        raise DomainError("the truncation window rule requires accel > 0")
    if lam == 0.0 or not math.isfinite(lam):
        raise DomainError("frequency must be nonzero")
    if epsilon_schedule is None:
        epsilon_schedule = default_epsilon_schedule(a)
    eps = list(epsilon_schedule)
    if len(eps) < 3:
        raise DomainError("epsilon schedule needs at least 3 entries")
    if any(e <= 0.0 for e in eps) or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise DomainError("epsilon schedule must be strictly decreasing and positive")
    T = window if window is not None else _TAIL_LOG / a

    u_peak = (2.0 / a) * math.asinh(a * z)
    pref = 1.0 / (4.0 * math.pi ** 2)
    four_z2 = 4.0 * z * z
    inv_a2 = 4.0 / (a * a)

    def transform(e: float) -> float:
        def integrand(u: float) -> float:
            w = pref / (inv_a2 * cmath.sinh(0.5 * a * complex(u, -e)) ** 2 - four_z2)
            # Re W is even and Im W odd in u, so the full transform is real
            return math.cos(lam * u) * w.real - math.sin(lam * u) * w.imag

        points = [u_peak] if u_peak < T else None
        val, _ = quad(integrand, 0.0, T, points=points, limit=quad_limit,
                      epsabs=1e-13, epsrel=1e-11)
        return 2.0 * val

    values = [transform(e) for e in eps]
    extrapolants = [2.0 * values[i + 1] - values[i] for i in range(len(values) - 1)]
    last = extrapolants[-1]
    diff = abs(extrapolants[-1] - extrapolants[-2])
    if diff > tol * max(abs(last), 1e-12):
        raise ConvergenceError(
            f"Richardson extrapolants not converged: last diff {diff:.3e} "
            f"against value {last:.3e} (tol {tol:g})")
    return last
