"""Concurrence of the two-atom state, entanglement-generation rate, and the
maximum of concurrence over an evolution.

For X-form states the concurrence reduces to two closed-form candidates
(k1 from the single-excitation block, k2 from the ground/doubly-excited
block).
"""

from __future__ import annotations

import math
import warnings
from itertools import repeat

import numpy as np

from .correlations import (CoefficientSet, SystemParams, _elementwise, _libm,
                           compute_coefficients)
from .errors import ConvergenceError, DomainError, _filled, each_or_alone
from .evolution import (_TEN, HARD_TOL, SAMPLES_PER_SCALE, Propagators, XState, _time_scale,
                        default_horizons, rate_table, x_concurrence)

# uniform samples allowed over the coherence window, beyond which the
# search raises ConvergenceError rather than truncate its grid
_DENSE_BUDGET = 5_000_000
_TAIL_SAMPLES = 2000
# samples the search bounds or evaluates per call, whatever its rows hold
# (about those of the largest row of the figure presets), so its arrays stay
# that size
_CHUNK_SAMPLES = 2 ** 15
_SECTIONS = 64
_BLOCK = 64  # samples per block of the search's branch and bound
_ZERO_MAX = 1e-13  # a maximum at or below it is roundoff of the k1 formula: 0
_MAX_ROUNDS = 32  # the sectioning reaches its width floor within 12 rounds
TOL_RANGE = (1e-10, 1e-4)  # refinement tolerances max_concurrence accepts
# The populations' rounding, and the effect of the eigenbasis' own error on
# p_aa p_ss - |c_as|^2, are of order cond(V) eps (the figure presets' rows
# reach 0.5 cond(V) eps at worst); below this condition number they stay
# 100 times inside the k2 radicand check's -4 HARD_TOL.
_PROVABLE_COND = 1e-2 * HARD_TOL / np.finfo(float).eps


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
    """The closed-form trajectories of the rows of a table of rates from
    |10>, held as the stacked arrays of `Propagators`, with an upper envelope
    of their concurrence."""

    def __init__(self, rates: np.ndarray):
        self.props = props = Propagators(rates, _TEN.populations)
        self.a1, self.d = rates[:, 0], rates[:, 4]
        self.coherent = -4.0 * (self.a1 + 1j * self.d)
        # The envelope of `bound`. Each of p_aa - p_ss, p_gg and p_ee is the
        # real part of a sum over the modes j of c_j exp(w_j t), c_j = u_j m_j
        # with m = V^-1 p0 and u the row of V (or V_aa - V_ss). Per set, for
        # those three in turn and each mode: Re w_j, Re c_j where w_j is real
        # (the term is monotone in t), and |c_j| where it is not, plus 1e-12
        # times the weight |u_j| |m_j| (|V_aa,j| + |V_ss,j| for the
        # difference) that scales rounding.
        count = len(rates)
        self.decay = np.zeros((count, 1, 4))
        self.monotone, self.swing = np.zeros((count, 3, 4)), np.zeros((count, 3, 4))
        self.provable = np.zeros(count, dtype=bool)
        sure = np.flatnonzero(props.cond < _PROVABLE_COND)
        if sure.size:
            v, w, m = props.v[sure], props.w[sure], props.amplitudes[sure]
            c = np.stack([v[:, 2] - v[:, 3], v[:, 0], v[:, 1]], axis=1) * m[:, None]
            real = w.imag[:, None] == 0.0
            self.decay[sure] = w.real[:, None]
            self.monotone[sure] = np.where(real, c.real, 0.0)
            weight = np.abs(np.stack([np.abs(v[:, 2]) + np.abs(v[:, 3]), v[:, 0], v[:, 1]],
                                     axis=1) * m[:, None])
            self.swing[sure] = np.where(real, 0.0, np.abs(c)) + 1e-12 * weight
            # channel rates >= 0 keep p_aa p_ss >= |c_as|^2 along the
            # trajectory, so no sample can breach the k2 radicand check
            rates = props.m[sure][:, [2, 3, 0, 0], [0, 0, 2, 3]]
            self.provable[sure] = (rates >= 0.0).all(axis=1)

    def bound(self, sets: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """An upper bound, >= 0, on the computed concurrence of set sets[k]
        over [t0[k], t1[k]], t0 <= t1, rounding of the float evaluation
        included; +inf for a set whose envelope is not proven: one without an
        eigenbasis, with a negative channel rate, or with an eigenbasis too
        ill-conditioned for the k2 radicand check to be sure to hold.

        From |10>, c_ge = 0 keeps k2 <= 0, and 4 Im(c_as)^2 =
        exp(-8 a1 t) sin^2(4 d t), so C <= sqrt((p_aa - p_ss)^2 +
        exp(-8 a1 t0) min(1, (4 d t1)^2)) - 2 sqrt(p_gg p_ee), with each
        population term taken at its extreme over the interval (and the
        exponential at t1 should roundoff leave a1 < 0)."""
        with np.errstate(all="ignore"):  # an overflow is a bound of inf, a NaN one kept
            decay = self.decay[sets]
            e0, e1 = np.exp(decay * t0[:, None, None]), np.exp(decay * t1[:, None, None])
            monotone = self.monotone[sets]
            at0, at1 = monotone * e0, monotone * e1
            reach = (self.swing[sets] * np.maximum(e0, e1)).sum(axis=2)
            high = np.maximum(at0, at1).sum(axis=2) + reach
            low = np.minimum(at0, at1).sum(axis=2) - reach
            spread = np.maximum(high[:, 0], -low[:, 0])
            a1, swing = self.a1[sets], 4.0 * self.d[sets] * t1
            coherence = np.exp(-8.0 * np.minimum(a1 * t0, a1 * t1)) * np.minimum(swing * swing, 1.0)
            pair = np.sqrt(np.maximum(low[:, 1], 0.0) * np.maximum(low[:, 2], 0.0))
            envelope = (np.sqrt(spread * spread + coherence) * (1.0 + 1e-12)
                        - 2.0 * pair * (1.0 - 1e-12) + 1e-15)
        return np.where(self.provable[sets], np.maximum(envelope, 0.0), np.inf)

    def concurrence(self, taus: np.ndarray, counts) -> np.ndarray:
        """Concurrence at `taus`: the first counts[0] stamps on the trajectory
        of the first set, the next counts[1] on that of the second, and so on.
        InvariantError on a positivity breach.

        A set's populations come from its own 4x4 @ 4xN product on its own
        stamps, which BLAS rounds alike for every N >= 2 (N = 1 takes the
        matrix-vector path); the rest is elementwise, so a stamp's bits do
        not depend on the other sets'. The search hands it at most
        _CHUNK_SAMPLES stamps and no set a single one."""
        counts = np.asarray(counts)
        ends = np.cumsum(counts)
        pops = np.empty((4, taus.size))
        for i in np.flatnonzero(counts).tolist():
            lo, hi = int(ends[i] - counts[i]), int(ends[i])
            pops[:, lo:hi] = self.props.propagate(i, taus[lo:hi])
        # in place, each product with its operands in the order of a one-set call
        c_as = np.repeat(self.coherent, counts)
        np.multiply(c_as, taus, out=c_as)
        np.multiply(_TEN.c_as, np.exp(c_as, out=c_as), out=c_as)
        return x_concurrence(*pops, c_as, 0.0, _TEN.tol)[2]  # c_ge = 0 from |10>


_SECTION_POINTS = np.arange(_SECTIONS + 1.0)


def _refine(fun, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Maximize `fun` on every bracket [lo[k], hi[k]].

    Each round samples the active brackets at _SECTIONS + 1 evenly spaced
    points, ends included (the arithmetic of np.linspace, whose zero-step
    branch a bracket wider than tol never takes), in calls
    fun(samples, active) on at most _CHUNK_SAMPLES samples, in order:
    `samples` holds those of bracket active[0], then those of active[1], and
    so on. It keeps the two sections around each best sample. A bracket
    stops at width max(tol, 64 ulp(hi)), a floor reachable at any magnitude.
    Returns each bracket's best sample.
    """
    best_t, best_c = np.array(lo, dtype=float), np.full(len(lo), -np.inf)
    lo, hi = best_t.copy(), np.array(hi, dtype=float)
    active, batch = np.arange(best_t.size), _CHUNK_SAMPLES // (_SECTIONS + 1)
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            return best_t, best_c
        for part in range(0, active.size, batch):
            part = slice(part, part + batch)
            ts = _SECTION_POINTS * ((hi[part] - lo[part]) / _SECTIONS)[:, None] + lo[part, None]
            ts[:, -1] = hi[part]
            cs = fun(ts.ravel(), active[part]).reshape(ts.shape)
            k = np.arange(ts.shape[0])
            j = np.argmax(cs, axis=1)  # first maximum: ties go to the smallest tau
            c_best, here = cs[k, j], active[part]
            up = c_best > best_c[here]
            best_t[here[up]], best_c[here[up]] = ts[k, j][up], c_best[up]
            lo[part], hi[part] = ts[k, np.maximum(j - 1, 0)], ts[k, np.minimum(j + 1, _SECTIONS)]
        going = hi - lo > np.maximum(tol, 64.0 * np.spacing(hi))
        active, lo, hi = active[going], lo[going], hi[going]
    raise ConvergenceError(f"bracket refinement did not converge in {_MAX_ROUNDS} rounds")


class _Grid:
    """The search grids of the rows of a table of rates on [0, horizons[r]],
    planned elementwise and concatenated: row r holds the sample indices
    starts[r]..ends[r] - 1, the points k dt, k = 0..m, of linspace(0,
    horizon, n + 1) (SAMPLES_PER_SCALE per time scale) up to the coherence
    window W, where the c_as bound 2|c_as(0)| exp(-4 a1 t) on the concurrence
    falls to 1e-13, but at least one scale; then the horizon, or, if `tailed`
    (W ends first and only the smooth populations matter), a geometric tail
    of _TAIL_SAMPLES points up to it. Raises the first check any row fails,
    with its first such row's message: DomainError for a horizon that is not
    finite and > 0, ConvergenceError when it needs more grid points than a
    float counts or W more than _DENSE_BUDGET samples."""

    def __init__(self, rates: np.ndarray, horizons: np.ndarray):
        self.horizon = horizon = np.asarray(horizons, dtype=float)
        bad = (horizon <= 0.0) | ~np.isfinite(horizon)
        if bad.any():
            raise DomainError(f"horizon must be finite and > 0, got {float(horizon[bad][0])}")
        a1 = rates[:, 0]
        with np.errstate(all="ignore"):  # an overflow is a count or window of inf
            scale = _time_scale(a1, rates[:, 4], horizon)
            count = SAMPLES_PER_SCALE * horizon / scale
            bad = count == math.inf
            if bad.any():
                raise ConvergenceError(f"horizon {float(horizon[bad][0]):.3g} needs more "
                                       "grid points than a float counts")
            n = np.maximum(np.ceil(count), 100.0)
            c0 = max(2.0 * abs(_TEN.c_as), 1e-13)
            window = np.where(a1 > 0.0, math.log(c0 / 1e-13) / (4.0 * a1), horizon)
            self.dt = horizon / n
            m = np.minimum(n, np.ceil(np.maximum(window, scale) / self.dt))
            bad = m > _DENSE_BUDGET
            if bad.any():
                raise ConvergenceError(f"coherence window needs {int(m[bad][0])} samples; "
                                       f"budget {_DENSE_BUDGET}")
            self.m, self.tailed = m.astype(int), m < n
            self.sizes = self.m + np.where(self.tailed, _TAIL_SAMPLES, 1)
            self.ends = np.cumsum(self.sizes)
            self.starts = self.ends - self.sizes
            # np.geomspace(m dt, horizon, _TAIL_SAMPLES) sample by sample: its
            # exponents are those of np.linspace, then its ends are set exactly
            self.log_lo = np.log10(self.m * self.dt)  # m dt = 0 in no tailed row
            self.step = (np.log10(self.horizon) - self.log_lo) / (_TAIL_SAMPLES - 1)

    def row(self, index: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.ends, index, side="right")

    def times(self, index: np.ndarray, row: np.ndarray) -> np.ndarray:
        """The times of samples `index` of rows `row`: k dt up to sample m,
        then the horizon, or, if tailed, the geometric tail from m dt."""
        k = index - self.starts[row]
        taus = k * self.dt[row]
        past = np.flatnonzero(k >= self.m[row] + self.tailed[row])
        if past.size:
            r = row[past]
            tailed = self.tailed[r]
            taus[past] = self.horizon[r]
            if tailed.any():
                r, j = r[tailed], (k[past] - self.m[r])[tailed]
                inner = j < _TAIL_SAMPLES - 1  # the tail's last sample is the horizon
                r, at = r[inner], past[tailed][inner]
                taus[at] = 10.0 ** (j[inner] * self.step[r] + self.log_lo[r])
        return taus


def _union(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of the union of the ranges [lo[k], hi[k]), ascending."""
    if lo.size == 0:
        return lo
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], np.maximum.accumulate(hi[order])
    opens = np.flatnonzero(np.insert(lo[1:] > hi[:-1], 0, True))  # after a gap
    lo, hi = lo[opens], hi[np.append(opens[1:] - 1, hi.size - 1)]
    width = hi - lo
    return np.repeat(lo - (np.cumsum(width) - width), width) + np.arange(width.sum())


def _brackets(index: np.ndarray, curve: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The positions, among the evaluated samples `index` (ascending) with
    concurrence `curve`, of the brackets a scan of the whole grids finds: a
    local maximum above 0 that is not a row's first or last sample and does
    not continue a flat run of them. A position counts only when its
    neighbours are evaluated, and the sample before its left one too, or
    that left one is a row's first, so that the flat-run rule is decided."""
    after = np.append(index[1:] == index[:-1] + 1, False)
    before = np.insert(after[:-1], 0, False)
    peak = np.zeros(index.size, dtype=bool)
    peak[1:-1] = (curve[1:-1] >= curve[:-2]) & (curve[1:-1] >= curve[2:]) & (curve[1:-1] > 0.0)
    peak &= before & after & ~edge
    decided = before & np.insert(before[:-1] | edge[:-1], 0, False)
    return np.flatnonzero(peak & decided & ~np.insert(peak[:-1], 0, False))


def _scan(trajectories: _Trajectories, grid: _Grid) -> tuple:
    """The two passes of `_search`: the times and the values of the first,
    last but one and last sample of each row, two (3, rows) arrays, then
    row, lower and upper end of each bracket whose bound is not below the
    floor its row provably reaches, in the order of the grids."""
    concurrence, bound = trajectories.concurrence, trajectories.bound
    starts, ends, count = grid.starts, grid.ends, grid.sizes.size
    blocks = -(-grid.sizes // _BLOCK)
    opens = np.cumsum(blocks) - blocks  # each row's first block

    def extent(block):
        """The rows of the blocks and their first and past-the-last samples."""
        row = np.searchsorted(opens, block, side="right") - 1
        first = (block - opens[row]) * _BLOCK + starts[row]
        return row, first, np.minimum(first + _BLOCK, ends[row])

    envelope, step = np.empty(blocks.sum()), _CHUNK_SAMPLES // _BLOCK
    for at in range(0, envelope.size, step):
        row, first, last = extent(np.arange(at, min(at + step, envelope.size)))
        envelope[at:at + step] = bound(row, grid.times(np.maximum(first - 1, starts[row]), row),
                                       grid.times(np.minimum(last, ends[row] - 1), row))
    top = envelope == np.repeat(np.maximum.reduceat(envelope, opens), blocks)

    # the floor: the largest end value of the row and of its brackets, or
    # _ZERO_MAX, below which a maximum reads 0 whichever sample holds it
    reached = np.full(count, _ZERO_MAX)
    marks, marked = np.stack([starts, ends - 2, ends - 1]), np.empty((3, count))

    def scan(block, *ranges):
        """Evaluate the blocks, each with the two samples before and the one
        after it, and the other ranges (lo, hi) of samples; raise the floor
        by the end values of the brackets found and return their sample,
        row, ends and bound. A slice's ranges hold at most _CHUNK_SAMPLES
        samples; a bracket that two slices find has the same bits in both."""
        row, first, last = extent(block)
        lo = np.concatenate([np.maximum(first - 2, starts[row]), *ranges[::2]])
        hi = np.concatenate([np.minimum(last + 1, ends[row]), *ranges[1::2]])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        total = np.cumsum(hi - lo)
        found, at = [(np.empty(0, dtype=int), np.empty(0, dtype=int), *np.empty((3, 0)))], 0
        while at < lo.size:
            cut = max(int(np.searchsorted(total, total[at] - hi[at] + lo[at] + _CHUNK_SAMPLES,
                                          side="right")), at + 1)
            index = _union(lo[at:cut], hi[at:cut])
            row = grid.row(index)
            taus = grid.times(index, row)
            curve = concurrence(taus, np.bincount(row, minlength=count))
            for mark, values in zip(marks, marked):
                hit = index == mark[row]
                values[row[hit]] = curve[hit]
            k = _brackets(index, curve, (index == starts[row]) | (index == ends[row] - 1))
            np.maximum.at(reached, row[k], np.maximum(curve[k - 1], curve[k + 1]))
            found.append((index[k], row[k], taus[k - 1], taus[k + 1],
                          bound(row[k], taus[k - 1], taus[k + 1])))
            at = cut
        return [np.concatenate(part) for part in zip(*found)]

    seen = scan(np.flatnonzero(top), starts, starts + 2, ends - 2, ends)
    reached = np.maximum(reached, np.maximum(marked[0], marked[2]))
    more = scan(np.flatnonzero(~top & ~(envelope < np.repeat(reached, blocks))))
    sample, holder, t_lo, t_hi, ceiling = (np.concatenate(part) for part in zip(seen, more))
    order = np.unique(sample, return_index=True)[1]  # each bracket once, in grid order
    order = order[~(ceiling[order] < reached[holder[order]])]
    times = grid.times(marks.ravel(), np.tile(np.arange(count), 3)).reshape(3, count)
    return times, marked, holder[order], t_lo[order], t_hi[order]


def _search(rates: np.ndarray, horizons: np.ndarray, tol: float) -> list:
    """(tau_star, c_max) of every row of a table of rates on [0, horizons[r]];
    raises what any row raises, before any row warns of a maximum at the horizon.

    Branch and bound on the envelope of `_Trajectories.bound`. Each row's
    grid is cut into blocks of _BLOCK samples, bounded over the block and
    one sample on either side. The first pass evaluates each row's first
    and last two samples and its blocks of highest bound (every block of a
    row whose envelope is not proven); their values and the end values of
    their brackets give a floor the row's maximum provably reaches. The
    second pass scans every other block whose bound is not below the floor,
    and _refine sections, all rows at once, the brackets whose bound is not
    below the raised floor. A block or bracket below it cannot hold the
    maximum, so the result has the bits of scanning and refining everything.

    Memory stays bounded, whatever the rows hold: the bound runs over the
    blocks of _CHUNK_SAMPLES samples at a time, each pass evaluates its
    blocks in ascending slices of at most _CHUNK_SAMPLES samples and keeps
    only their brackets, and _refine sections at most _CHUNK_SAMPLES samples
    at a time.
    """
    trajectories, count = _Trajectories(rates), len(rates)
    times, marked, holder, t_lo, t_hi = _scan(trajectories, _Grid(rates, horizons))
    t_ref, c_ref = _refine(
        lambda ts, active: trajectories.concurrence(
            ts, np.bincount(holder[active], minlength=count) * (_SECTIONS + 1)),
        t_lo, t_hi, tol)
    found = []
    ranges = np.searchsorted(holder, np.arange(count + 1)).tolist()
    for (t_start, t_penult, t_end), (c_start, c_penult, c_end), b_lo, b_hi in zip(
            times.T.tolist(), marked.T.tolist(), ranges, ranges[1:]):
        cand_t = np.concatenate([[t_start], t_ref[b_lo:b_hi], [t_end]])
        cand_c = np.concatenate([[c_start], c_ref[b_lo:b_hi], [c_end]])
        best = int(np.argmax(cand_c))  # candidates are time-ordered: smallest tau wins
        tau_star, c_max = cand_t[best], cand_c[best]
        if c_max <= _ZERO_MAX:
            found.append((0.0, 0.0))
            continue
        if tau_star >= t_penult and c_end >= c_penult:
            warnings.warn("concurrence maximum sits at the horizon; extend it",
                          RuntimeWarning)
        found.append((float(tau_star), float(c_max)))
    return found


def _check_tol(tol: float):
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise DomainError(f"tol must lie in [1e-10, 1e-4], got {tol}")


def max_concurrences(coeff_sets, horizon: float | None = None, tol: float = 1e-8) -> list:
    """`max_concurrence` of every coefficient set in one call: its
    (tau_star, c_max), or the error its own call would raise.

    The sets become one table of rates, planned elementwise, then searched
    together by one `_search`, which scans and refines only the blocks and
    brackets its envelope cannot rule out, in slices of at most
    _CHUNK_SAMPLES samples; `each_or_alone` halves a failing planning or
    search down to its failing sets. A set gets the bits, the error and the
    horizon warning of its own call, and of the search without the
    envelope, whatever else it is with.
    """
    _check_tol(tol)
    rates = rate_table(coeff_sets)
    horizons = np.empty(len(rates))

    def plan(rows):
        found = (default_horizons(rates[rows], _TEN) if horizon is None
                 else np.full(len(rows), horizon, dtype=float))
        _Grid(rates[rows], found)  # the checks of the search grids
        return found

    failed = _filled(horizons, plan, len(rates))
    planned = [r for r, error in enumerate(failed) if error is None]
    searched = iter(each_or_alone(lambda rows: _search(rates[rows], horizons[rows], tol),
                                  planned) if planned else [])
    return [error or next(searched) for error in failed]


def max_concurrence(params: SystemParams, horizon: float | None = None, tol: float = 1e-8,
                    *, coeffs: CoefficientSet | None = None) -> tuple[float, float]:
    """Global maximum of the concurrence over [0, horizon] for an evolution
    started from the separable '10' state, the paper's initial state.

    Searches a grid that is uniform (SAMPLES_PER_SCALE points per
    oscillation/decay scale) over the coherence window and geometric beyond
    it, then sections its local brackets at once down to width `tol`; ties
    resolve to the smallest time. Only the blocks of the grid and the
    brackets whose upper envelope reaches a value the maximum provably
    attains are evaluated, which gives the bits of scanning and refining
    them all. The default horizon outlasts both the coherence decay and the
    population relaxation. Warns when the maximum sits at the horizon;
    raises ConvergenceError when the coherence window needs more than
    _DENSE_BUDGET samples. Returns (tau_star, c_max); the one-set case of
    `max_concurrences`.
    """
    _check_tol(tol)
    if coeffs is None:
        coeffs = compute_coefficients(params)
    result = max_concurrences([coeffs], horizon, tol)[0]
    if isinstance(result, Exception):
        raise result
    return result
