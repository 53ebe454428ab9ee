"""The paper's qualitative claims, checked on the figure presets as the
command line emits them: each figure is rendered with `figure N --format
json` and read back with `load_result`, so a claim holds for the bytes a
user gets, not for an internal path.

C2 (anti-Unruh): at small boundary distance the generation rate (figure 3)
and the maximum of the concurrence (figure 9) are not monotonic in the
acceleration; near the mirror and far from it they are.
C4: at larger acceleration, the concurrence disappears later when the
environment-induced interaction D is kept.

Each threshold sits well inside the value measured at the time it was set;
the measured values are quoted next to it.
"""

import contextlib
import io

import numpy as np
import pytest

from mirroratoms import CoefficientSet, evolve_closed, load_result, prepare_initial
from mirroratoms.cli import main

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


def death_time(result) -> float:
    """The last time the concurrence of a one-variant tau result is above
    ALIVE: bracketed by the last such stamp of the grid and the next one,
    then bisected on evolve_closed to the resolution of the floats."""
    columns = result.columns
    assert all(error is None for error in columns.error)
    coeffs = CoefficientSet(columns.a1[0], columns.a2[0], columns.b1[0], columns.b2[0],
                            columns.d[0])
    alive = np.nonzero(np.array(columns.value) > ALIVE)[0]
    assert alive.size and alive[-1] + 1 < len(columns.value), "no death inside the grid"
    lo, hi = columns.axis_value[alive[-1]], columns.axis_value[alive[-1] + 1]
    state0 = prepare_initial("ten")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if evolve_closed(state0, coeffs, [mid]).concurrence[0] > ALIVE:
            lo = mid
        else:
            hi = mid
    return lo


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
