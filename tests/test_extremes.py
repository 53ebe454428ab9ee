"""Extreme finite inputs: every command returns an exit code and every sweep
a result, whatever the magnitudes; a failure is a typed error (exit 3, a row
marker), never a traceback."""

import contextlib
import io
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from mirroratoms import (ConvergenceError, SweepSpec, compute_coefficients,
                         load_result, max_concurrences, run_sweep)
from mirroratoms.cli import main
from mirroratoms.concurrence import _generation_rate
from mirroratoms.correlations import SystemParams, _kernels
from mirroratoms.sweep import render_json

LENGTHS = (1e-300, 1e-8, 0.4, 1e150, 1e300)  # omega*z and omega*L
ACCELS = (0.0, 1.0, 1e160, 1e300)  # a/omega


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


@pytest.mark.parametrize("command", ["coefficients", "rate", "cmax", "evolve"])
def test_commands_exit_with_a_code_on_extreme_inputs(command):
    codes = {_run([command, "--z", repr(z), "--l", repr(l), "--accel", repr(a)])
             for z, l, a in itertools.product(LENGTHS, LENGTHS, ACCELS)}
    assert codes <= {0, 2, 3}


def _sweeps(quantity):
    values = {"z_omega": LENGTHS, "a_over_omega": ACCELS, "l_omega": LENGTHS}
    for axis, grid in values.items():
        others = [key for key in values if key != axis]
        for fixed in itertools.product(*(values[key] for key in others)):
            yield SweepSpec(axis=axis, grid=grid, fixed=dict(zip(others, fixed)),
                            quantity=quantity)


@pytest.mark.parametrize("quantity", ["rate", "coefficients", "cmax"])
def test_sweeps_mark_their_failed_rows_on_extreme_inputs(tmp_path, quantity):
    path = tmp_path / "result.json"
    for spec in _sweeps(quantity):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_sweep(spec)
        for row in result.rows:
            if row.error is None:  # a complete row
                assert row.coeffs is not None, (spec, row)
                assert (row.value is None) == (quantity == "coefficients"), (spec, row)
            else:
                assert row.error and row.value is None, (spec, row)
        path.write_text(render_json(result))
        assert load_result(path) == result  # finite numbers only


def test_kernels_vanish_where_the_phase_overflows():
    # accel*d past the float range: the kernels are 0 to double precision,
    # as they already were where only the denominator overflows
    f, h = _kernels(np.array([1.0, 1.0]), np.array([1e160, 1e160]), np.array([1e150, 1e140]))
    assert (f[0], h[0]) == (0.0, 0.0)
    assert [abs(f[1]), abs(h[1])] == [0.0, 0.0]
    coeffs = compute_coefficients(SystemParams.from_dimensionless(0.4, 1e160, 1e150))
    assert (coeffs.a2, coeffs.b2, coeffs.d) == (0.0, 0.0, 0.0)
    for command in ("coefficients", "rate", "cmax", "evolve"):
        assert _run([command, "--z", "0.4", "--l", "1e150", "--accel", "1e160"]) == 0
        # omega*L = 1e300 overflows the diagonal distance: a domain error
        assert _run([command, "--z", "1e-300", "--l", "1e300", "--accel", "1e150"]) == 3


@pytest.mark.parametrize("accel", [1e150, 1e160, 1e300])
def test_rate_with_squares_past_the_float_range(accel):
    c = compute_coefficients(SystemParams.from_dimensionless(0.4, accel, 0.3))
    mpmath.mp.dps = 40
    exact = 4 * mpmath.hypot(c.a2, c.d) - 4 * mpmath.sqrt(mpmath.mpf(c.a1) ** 2
                                                          - mpmath.mpf(c.b1) ** 2)
    rate = _generation_rate(c.a1, c.a2, c.b1, c.d)
    assert math.isfinite(rate) and rate == pytest.approx(float(exact), rel=1e-15)
    assert _run(["rate", "--z", "0.4", "--l", "0.3", "--accel", repr(accel)]) == 0
    spec = SweepSpec(axis="a_over_omega", grid=(1.0, accel),
                     fixed={"z_omega": 0.4, "l_omega": 0.3}, quantity="rate")
    assert all(error is None for error in run_sweep(spec).columns.error)


def test_search_horizon_beyond_a_float_count_is_a_typed_error():
    c = compute_coefficients(SystemParams.from_dimensionless(0.4, 1.0, 0.3))
    found = max_concurrences([c, c.without_d()], horizon=1e307)
    assert [type(f) for f in found] == [ConvergenceError] * 2
    assert "horizon" in str(found[0])
    assert _run(["cmax", "--z", "0.4", "--l", "0.3", "--horizon", "1e307"]) == 3
    assert _run(["cmax", "--z", "0.4", "--l", "0.3", "--horizon", "1e300"]) == 0
