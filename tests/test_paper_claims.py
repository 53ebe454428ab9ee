"""The paper's qualitative claims, checked on the figure presets as the
command line emits them: each figure is rendered with `figure N --format
json` and read back with `load_result`, so a claim holds for the bytes a
user gets, not for an internal path.

C1: at small acceleration the generation rate (figure 2) and the maximum of
the concurrence (figures 7 and 8) oscillate with the boundary distance
before they settle to a stable value; at larger acceleration they barely
oscillate.
C2 (anti-Unruh): at small boundary distance the generation rate (figure 3)
and the maximum of the concurrence (figure 9) are not monotonic in the
acceleration; near the mirror and far from it they are.
C3: the environment-induced interaction D (the coupling d of the with_D
variant) leaves the evolution unchanged under some conditions: at the
times n pi / (4|d|), where its phase on the coherence is +-1 (figure 5),
and for the death of the concurrence once the coherence has decayed
(figure 6, a/omega = 0.5).
C4: at larger acceleration, the concurrence disappears later when the
environment-induced interaction D is kept.

Each threshold sits well inside the value measured at the time it was set;
the measured values are quoted next to it.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from mirroratoms import CoefficientSet, evolve_closed, load_result, prepare_initial
from mirroratoms.cli import main
from mirroratoms.evolution import tau_horizon

ALIVE = 1e-12  # concurrence above this counts as entanglement


def render(figure: int, folder, points=None) -> list:
    """The SweepResults of `figure N --format json`, one per file it wrote."""
    argv = ["figure", str(figure), "--format", "json", "--out", str(folder)]
    if points is not None:
        argv += ["--points", str(points)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(argv) == 0
    return [load_result(path) for path in printed.getvalue().split()]


def slope_sign_changes(values) -> int:
    """How often the sign of the slope flips along the curve; flat steps skipped."""
    signs = np.sign(np.diff(values))
    signs = signs[signs != 0.0]
    return int(np.sum(signs[1:] != signs[:-1]))


def peak_to_peak(result, lo, hi) -> float:
    """max - min of the values over lo <= axis value < hi."""
    x, values = np.array(result.columns.axis_value), np.array(result.columns.value)
    return float(np.ptp(values[(x >= lo) & (x < hi)]))


def decade_sign_changes(result) -> dict:
    """k: slope_sign_changes over the decade 10^k <= omega*z < 10^(k+1), for
    each decade the grid reaches."""
    x, values = np.array(result.columns.axis_value), np.array(result.columns.value)
    return {k: slope_sign_changes(values[(x >= 10.0 ** k) & (x < 10.0 ** (k + 1))])
            for k in range(math.floor(math.log10(x[0])), math.ceil(math.log10(x[-1])))}


@pytest.mark.parametrize("figure, points", [(2, 400), (2, 800), (7, 200), (7, 400),
                                            (8, 200), (8, 400)])
def test_c1_oscillation_in_distance_before_a_stable_value(tmp_path, figure, points):
    results = render(figure, tmp_path, points)
    small = [r for r in results if r.spec.fixed["a_over_omega"] == 0.1]
    assert len(small) == {2: 2, 7: 2, 8: 4}[figure]
    for result in small:  # both variants of every a/omega = 0.1 panel
        key = result.spec.fixed, result.spec.variants
        assert decade_sign_changes(result)[1] >= 10, key  # 10 <= omega*z < 100: measured 12-13
        assert peak_to_peak(result, 10.0, 100.0) < 0.5 * peak_to_peak(result, 1.0, 10.0), key
        # measured ratios 0.07-0.12 (figures 2 and 7), 0.17-0.31 (figure 8)
    if figure == 2:
        for result in results:  # settled: measured 2.8e-7 to 7.7e-6
            assert peak_to_peak(result, 1000.0, math.inf) < 1e-4, result.spec.fixed
    large = [r for r in results if r.spec.fixed["a_over_omega"] != 0.1]
    assert len(large) == len(small)
    for result in large:  # a/omega = 1 (figures 2 and 7) or 0.5 (figure 8): measured <= 3
        assert max(decade_sign_changes(result).values()) <= 5, (result.spec.fixed, result.spec.variants)


@pytest.mark.parametrize("points", [400, 800])
def test_c2_rate_is_non_monotonic_in_acceleration_only_at_small_distance(tmp_path, points):
    changes = {}
    for result in render(3, tmp_path, points):
        if result.spec.variants == ("with_D",):
            fixed = result.spec.fixed
            changes[fixed["z_omega"], fixed["l_omega"]] = slope_sign_changes(result.columns.value)
    assert len(changes) == 9
    for (z_omega, l_omega), count in changes.items():
        if z_omega == 20.0:
            assert count >= 3, (l_omega, count)  # measured 8, 7, 5 for L = 0.3, 3, 30
        else:
            assert count <= 1, (z_omega, l_omega, count)  # measured 0 or 1


@pytest.mark.parametrize("points", [200, 400])
def test_c2_cmax_is_non_monotonic_in_acceleration_only_at_small_distance(tmp_path, points):
    changes = {}
    for result in render(9, tmp_path, points):
        if result.spec.variants == ("with_D",):
            fixed = result.spec.fixed
            changes[fixed["z_omega"], fixed["l_omega"]] = slope_sign_changes(result.columns.value)
    assert len(changes) == 9
    for (z_omega, l_omega), count in changes.items():
        if z_omega == 20.0:
            assert count >= 3, (l_omega, count)  # measured 8, 7, 5 for L = 0.3, 3, 30
        else:
            assert count == 0, (z_omega, l_omega, count)  # measured 0


def coefficients(result) -> CoefficientSet:
    """The coefficients of a one-variant tau result, as emitted."""
    columns = result.columns
    return CoefficientSet(columns.a1[0], columns.a2[0], columns.b1[0], columns.b2[0],
                          columns.d[0])


def last_alive(coeffs, taus, values) -> float:
    """The last time the concurrence is above ALIVE, given its values at the
    times `taus`: bracketed by the last such stamp and the next one, then
    bisected on evolve_closed to the resolution of the floats."""
    alive = np.nonzero(np.asarray(values) > ALIVE)[0]
    assert alive.size and alive[-1] + 1 < len(values), "no death inside the grid"
    lo, hi = taus[alive[-1]], taus[alive[-1] + 1]
    state0 = prepare_initial("ten")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if evolve_closed(state0, coeffs, [mid]).concurrence[0] > ALIVE:
            lo = mid
        else:
            hi = mid
    return lo


def death_time(result) -> float:
    """last_alive on the grid and the values of a one-variant tau result."""
    columns = result.columns
    assert all(error is None for error in columns.error)
    return last_alive(coefficients(result), columns.axis_value, columns.value)


def test_c3_d_leaves_the_concurrence_unchanged_where_its_phase_is_real(tmp_path):
    state0, points = prepare_initial("ten"), []
    for result in render(5, tmp_path):
        if result.spec.variants == ("with_D",):
            with_d = coefficients(result)
            period = math.pi / (4.0 * abs(with_d.d))  # sin(4 d tau) vanishes at its multiples
            stamps = period * np.arange(1, int(result.columns.axis_value[-1] / period) + 1)
            both = [evolve_closed(state0, c, stamps).concurrence
                    for c in (with_d, with_d.without_d())]
            assert np.all(np.abs(both[0] - both[1]) <= 1e-12), result.spec.fixed  # measured 0
            points.append(stamps.size)
    assert points == [20, 3, 3, 2]


def test_c3_d_leaves_the_death_time_unchanged_once_the_coherence_has_decayed(tmp_path):
    deaths = {}
    for result in render(6, tmp_path):
        if result.spec.fixed["a_over_omega"] == 0.5:
            assert result.columns.value[-1] > ALIVE  # still alive at the end of the grid
            coeffs = coefficients(result)
            taus = np.linspace(0.0, 40.0 * tau_horizon(coeffs), 400_001)
            values = evolve_closed(prepare_initial("ten"), coeffs, taus).concurrence
            deaths.setdefault(result.spec.fixed["z_omega"], []).append(
                last_alive(coeffs, taus, values))
    assert sorted(deaths) == [0.4, 2.0, 20.0]
    for z_omega, (with_d, without_d) in deaths.items():
        assert abs(with_d - without_d) <= 1e-6, z_omega
        # measured 175.37, 21.217 and 19.992 for both variants; the coherence
        # has then decayed below exp(-8 a1 tau) < 1e-17


@pytest.fixture(scope="module")
def figure6_deaths(tmp_path_factory) -> dict:
    """Death time per (omega*z, variant) of the a/omega = 1.3 panels of figure 6."""
    return {(r.spec.fixed["z_omega"], r.spec.variants[0]): death_time(r)
            for r in render(6, tmp_path_factory.mktemp("fig6"))
            if r.spec.fixed["a_over_omega"] == 1.3}


def test_c4_concurrence_dies_later_with_d_near_the_mirror(figure6_deaths):
    with_d, without_d = figure6_deaths[0.4, "with_D"], figure6_deaths[0.4, "without_D"]
    assert with_d - without_d > 4.0  # measured 9.84 against 5.31


def test_c4_concurrence_still_dies_later_with_d_at_middle_distance(figure6_deaths):
    assert figure6_deaths[2.0, "with_D"] > figure6_deaths[2.0, "without_D"]  # 4.149, 4.116


def test_c4_death_times_agree_far_from_the_mirror(figure6_deaths):
    assert abs(figure6_deaths[20.0, "with_D"] - figure6_deaths[20.0, "without_D"]) < 0.01
    # measured 4.098 against 4.097
