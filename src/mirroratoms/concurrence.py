"""Concurrence of the two-atom state, entanglement-generation rate, and the
maximum of concurrence over an evolution.

For X-form states the concurrence reduces to two closed-form candidates
(k1 from the single-excitation block, k2 from the ground/doubly-excited
block).
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .correlations import (CoefficientSet, SystemParams, _elementwise, _libm,
                           compute_coefficients)
from .errors import ConvergenceError, DomainError, each_or_alone
from .evolution import (_TEN, SAMPLES_PER_SCALE, XState, _time_scale, default_horizons,
                        propagators, x_concurrence)

# uniform samples allowed over the coherence window, beyond which the
# search raises ConvergenceError rather than truncate its grid
_DENSE_BUDGET = 5_000_000
_TAIL_SAMPLES = 2000
# search-grid samples that max_concurrences scans in one chunk, about those of
# the largest row of the figure presets, so a chunk's arrays stay that size
_CHUNK_SAMPLES = 2 ** 15
_SECTIONS = 64
_MAX_ROUNDS = 32  # the sectioning reaches its width floor within 12 rounds
TOL_RANGE = (1e-10, 1e-4)  # refinement tolerances max_concurrence accepts

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


def generation_rate(coeffs: CoefficientSet) -> GenerationReport:
    """Initial growth rate of the concurrence from the separable '10' state:
    rate = 4 sqrt(a2^2 + d^2) - 4 sqrt(a1^2 - b1^2); the one-element case of
    `_generation_rate`."""
    return GenerationReport(_generation_rate(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.d))


def _squares(a1: float, b1: float) -> tuple:
    """(a1^2, b1^2, 1.0) by libm's pow, or, where a square leaves the float
    range, the squares of a1 and b1 scaled down by s = max(|a1|, |b1|), and s."""
    try:
        return a1 ** 2, b1 ** 2, 1.0
    except OverflowError:
        scale = max(abs(a1), abs(b1))
        return (a1 / scale) ** 2, (b1 / scale) ** 2, scale


def _generation_rate(a1, a2, b1, d):
    """The rate of `generation_rate`, elementwise: an array over the
    broadcast of the arguments, or a float when all four are floats; the one
    implementation of the formula. DomainError for the first element whose
    a1^2 - b1^2 is negative beyond roundoff."""
    a1, a2, b1, d, scalar = _elementwise(a1, a2, b1, d)
    # libm's pow and hypot: x * x and np.hypot differ in the last bit of some values
    try:  # pow(x, 2) is x ** 2
        a1_sq, b1_sq = (np.fromiter(map(pow, x.tolist(), repeat(2)), dtype=float, count=x.size)
                        for x in (a1, b1))
        scale = np.ones(a1.size)
    except OverflowError:  # _squares of each element, as only they scale
        a1_sq, b1_sq, scale = np.array(list(map(_squares, a1.tolist(), b1.tolist()))).T
    disc = a1_sq - b1_sq
    bad = disc < -1e-12 * np.maximum(np.maximum(a1_sq, b1_sq), 1e-300)
    if bad.any():
        disc, scale = (float(x[np.argmax(bad)]) for x in (disc, scale))
        raise DomainError(f"a1^2 - b1^2 = {disc * scale * scale:.3e} < 0; "
                          "invalid coefficient set")
    hypot = _libm(math.hypot, a2, d)
    rate = 4.0 * hypot - 4.0 * scale * np.sqrt(np.maximum(disc, 0.0))
    return float(rate[0]) if scalar else rate


class _Trajectories:
    """The closed-form trajectories of coefficient sets from |10>."""

    def __init__(self, coeff_sets):
        self.props = propagators(coeff_sets)
        self.coherent = np.array([-4.0 * (c.a1 + 1j * c.d) for c in coeff_sets])

    def concurrence(self, taus: np.ndarray, counts) -> np.ndarray:
        """Concurrence at `taus`: the first counts[0] stamps on the trajectory
        of the first set, the next counts[1] on that of the second, and so on.
        InvariantError on a positivity breach.

        A set's populations come from its own 4x4 @ 4xN product on its own
        stamps, which BLAS may round differently with N; the rest is
        elementwise, so a stamp's bits do not depend on the other sets'."""
        ends = np.cumsum(counts).tolist()
        p0, pops = _TEN.populations, np.empty((4, taus.size))
        for prop, lo, hi in zip(self.props, [0, *ends], ends):
            if hi > lo:
                pops[:, lo:hi] = prop.propagate(p0, taus[lo:hi])
        # in place, each product with its operands in the order of a one-set call
        c_as = np.repeat(self.coherent, counts)
        np.multiply(c_as, taus, out=c_as)
        np.multiply(_TEN.c_as, np.exp(c_as, out=c_as), out=c_as)
        return x_concurrence(*pops, c_as, 0.0, _TEN.tol)[2]  # c_ge = 0 from |10>


_SECTION_POINTS = np.arange(_SECTIONS + 1.0)


def _refine(fun, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Maximize `fun` on every bracket [lo[k], hi[k]] at once.

    Each round samples the active brackets at _SECTIONS + 1 evenly spaced
    points, ends included (the arithmetic of np.linspace, whose zero-step
    branch a bracket wider than tol never takes), in one call
    fun(samples, active): `samples` holds those of bracket active[0], then
    those of active[1], and so on. It keeps the two sections around each best
    sample. A bracket stops at width max(tol, 64 ulp(hi)), a floor reachable
    at any magnitude. Returns each bracket's best sample.
    """
    best_t, best_c = np.array(lo, dtype=float), np.full(len(lo), -np.inf)
    active = np.arange(best_t.size)
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            return best_t, best_c
        ts = _SECTION_POINTS * ((hi - lo) / _SECTIONS)[:, None] + lo[:, None]
        ts[:, -1] = hi
        cs = fun(ts.ravel(), active).reshape(ts.shape)
        k = np.arange(active.size)
        j = np.argmax(cs, axis=1)  # first maximum: ties go to the smallest tau
        c_best = cs[k, j]
        up = c_best > best_c[active]
        best_t[active[up]], best_c[active[up]] = ts[k, j][up], c_best[up]
        lo, hi = ts[k, np.maximum(j - 1, 0)], ts[k, np.minimum(j + 1, _SECTIONS)]
        going = hi - lo > np.maximum(tol, 64.0 * np.spacing(hi))
        active, lo, hi = active[going], lo[going], hi[going]
    raise ConvergenceError(f"bracket refinement did not converge in {_MAX_ROUNDS} rounds")


class _Row(NamedTuple):
    """A coefficient set with its horizon and the plan of its search grid:
    the points k dt, k = 0..m, with the last one set to the horizon, or,
    if `tailed`, followed by a geometric tail from m dt to the horizon."""
    coeffs: CoefficientSet
    horizon: float
    m: int
    dt: float
    tailed: bool

    @property
    def size(self) -> int:
        return self.m + (_TAIL_SAMPLES if self.tailed else 1)


def _plan(coeffs: CoefficientSet, horizon: float) -> _Row:
    """Search grid on [0, horizon]: the points of linspace(0, horizon, n + 1)
    (SAMPLES_PER_SCALE per time scale) up to the coherence window W, where
    the c_as bound 2|c_as(0)| exp(-4 a1 t) on the concurrence falls to 1e-13,
    but at least one scale; past W, where only the smooth populations
    matter, a geometric tail of _TAIL_SAMPLES points up to the horizon.
    DomainError for a horizon that is not finite and > 0, ConvergenceError
    when the window needs more than _DENSE_BUDGET samples or the horizon
    more grid points than a float holds."""
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise DomainError(f"horizon must be finite and > 0, got {horizon}")
    scale = _time_scale(coeffs, horizon)
    count = SAMPLES_PER_SCALE * horizon / scale
    if count == math.inf:
        raise ConvergenceError(f"horizon {horizon:.3g} needs more grid points than a float counts")
    n = max(math.ceil(count), 100)
    c0 = max(2.0 * abs(_TEN.c_as), 1e-13)
    window = math.log(c0 / 1e-13) / (4.0 * coeffs.a1) if coeffs.a1 > 0.0 else horizon
    dt = horizon / n
    m = min(n, math.ceil(max(window, scale) / dt))
    if m > _DENSE_BUDGET:
        raise ConvergenceError(f"coherence window needs {m} samples; budget {_DENSE_BUDGET}")
    return _Row(coeffs, horizon, m, dt, m < n)


def _search_grids(rows) -> np.ndarray:
    """The search grids of the planned rows, concatenated."""
    tailed = [row for row in rows if row.tailed]
    tails = iter(np.geomspace([row.m * row.dt for row in tailed],
                              [row.horizon for row in tailed], _TAIL_SAMPLES, axis=1)
                 if tailed else ())
    parts = []
    for row in rows:
        taus = np.arange(row.m + 1) * row.dt
        if row.tailed:
            parts += [taus, next(tails)[1:]]
        else:
            taus[-1] = row.horizon
            parts.append(taus)
    return np.concatenate(parts)


def _search(rows, tol: float) -> list:
    """(tau_star, c_max) of every planned row, in one pass: one scan of the
    concatenated search grids, then one _refine over every local bracket;
    raises what any row raises, before any row warns that its maximum sits
    at the horizon."""
    concurrence = _Trajectories([row.coeffs for row in rows]).concurrence
    sizes = [row.size for row in rows]
    ends = np.cumsum(sizes)
    taus = _search_grids(rows)
    curve = concurrence(taus, sizes)
    edge = np.zeros(taus.size, dtype=bool)
    edge[ends - sizes], edge[ends - 1] = True, True  # a row's ends have one neighbour
    inner = np.nonzero((curve[1:-1] >= curve[:-2]) & (curve[1:-1] >= curve[2:])
                       & (curve[1:-1] > 0.0) & ~edge[1:-1])[0] + 1
    inner = inner[np.diff(inner, prepend=-2) != 1]  # a flat run needs one bracket
    owner = np.searchsorted(ends, inner, side="right")  # the row of each bracket
    t_ref, c_ref = _refine(
        lambda ts, active: concurrence(
            ts, np.bincount(owner[active], minlength=len(rows)) * (_SECTIONS + 1)),
        taus[inner - 1], taus[inner + 1], tol)
    found = []
    bounds = np.searchsorted(owner, np.arange(len(rows) + 1)).tolist()
    for lo, hi, b_lo, b_hi in zip([0, *ends.tolist()], ends.tolist(), bounds, bounds[1:]):
        cand_t = np.concatenate([taus[lo:lo + 1], t_ref[b_lo:b_hi], taus[hi - 1:hi]])
        cand_c = np.concatenate([curve[lo:lo + 1], c_ref[b_lo:b_hi], curve[hi - 1:hi]])
        best = int(np.argmax(cand_c))  # candidates are time-ordered: smallest tau wins
        tau_star, c_max = cand_t[best], cand_c[best]
        if c_max <= 1e-13:  # below the roundoff floor of the k1 formula
            found.append((0.0, 0.0))
            continue
        if tau_star >= taus[hi - 2] and curve[hi - 1] >= curve[hi - 2]:
            warnings.warn("concurrence maximum sits at the horizon; extend it",
                          RuntimeWarning)
        found.append((float(tau_star), float(c_max)))
    return found


def _chunks(rows) -> list:
    """The rows in order, cut into runs whose grids hold at most _CHUNK_SAMPLES
    samples in all; a larger row is a run of its own."""
    chunks, total = [], _CHUNK_SAMPLES
    for row in rows:
        if total + row.size > _CHUNK_SAMPLES:
            chunks.append([])
            total = 0
        chunks[-1].append(row)
        total += row.size
    return chunks


def _check_tol(tol: float):
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise DomainError(f"tol must lie in [1e-10, 1e-4], got {tol}")


def max_concurrences(coeff_sets, horizon: float | None = None, tol: float = 1e-8) -> list:
    """`max_concurrence` of every coefficient set in one call: its
    (tau_star, c_max), or the error its own call would raise.

    The sets are planned together (default horizons from one stacked
    computation), then searched in chunks, in order, whose grids hold at most
    _CHUNK_SAMPLES samples in all (a larger set alone); `each_or_alone`
    halves a failing batch of the planning or a failing chunk down to its
    failing sets. A set gets the bits, the error and the horizon warning of
    its own call, whatever else it is with.
    """
    _check_tol(tol)

    def plan(sets):
        horizons = default_horizons(sets, _TEN) if horizon is None else [horizon] * len(sets)
        return [_plan(coeffs, h) for coeffs, h in zip(sets, horizons)]

    planned = each_or_alone(plan, list(coeff_sets))
    rows = [row for row in planned if isinstance(row, _Row)]
    search = partial(_search, tol=tol)
    searched = iter([found for chunk in _chunks(rows) for found in each_or_alone(search, chunk)])
    return [next(searched) if isinstance(row, _Row) else row for row in planned]


def max_concurrence(params: SystemParams, horizon: float | None = None, tol: float = 1e-8,
                    *, coeffs: CoefficientSet | None = None) -> tuple[float, float]:
    """Global maximum of the concurrence over [0, horizon] for an evolution
    started from the separable '10' state, the paper's initial state.

    Scans a grid that is uniform (SAMPLES_PER_SCALE points per
    oscillation/decay scale) over the coherence window and geometric beyond
    it, then sections every local bracket at once down to width `tol`; ties
    resolve to the smallest time. The default horizon outlasts both the
    coherence decay and the population relaxation. Warns when the maximum
    sits at the horizon; raises ConvergenceError when the coherence window
    needs more than _DENSE_BUDGET samples. Returns (tau_star, c_max); the
    one-set case of `max_concurrences`.
    """
    _check_tol(tol)
    if coeffs is None:
        coeffs = compute_coefficients(params)
    result = max_concurrences([coeffs], horizon, tol)[0]
    if isinstance(result, Exception):
        raise result
    return result
