"""Kernels and the reduced coefficient set against the high-precision
reference."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirroratoms import CoefficientSet, DomainError, SystemParams, compute_coefficients
from mirroratoms.concurrence import _generation_rate, generation_rate
from mirroratoms.correlations import INERTIAL_SWITCH, _coefficients, _kernels, coth
from mirroratoms.sweep import preset

import float_reference as float_ref
import reference as ref


def test_frozen_anchors_match_recomputed_oracle():
    # guard against stale frozen constants
    assert float(ref.kernel_f_hp(1, 1, 0.4)) == pytest.approx(ref.FROZEN["f_1_1_04"], abs=1e-15)
    assert float(ref.kernel_h_hp(1, 1, 0.15)) == pytest.approx(ref.FROZEN["h_1_1_015"], abs=1e-14)
    assert float(ref.kernel_h_hp(1, 1, 0.4)) == pytest.approx(ref.FROZEN["h_1_1_04"], abs=1e-15)
    a1, a2, b1, b2, d = (float(v) for v in ref.coefficients_hp(1, 1, 0.4, 0.3))
    assert a1 == pytest.approx(ref.FROZEN["a1"], rel=1e-14)
    assert a2 == pytest.approx(ref.FROZEN["a2"], rel=1e-14)
    assert b1 == pytest.approx(ref.FROZEN["b1"], rel=1e-14)
    assert b2 == pytest.approx(ref.FROZEN["b2"], rel=1e-14)
    assert d == pytest.approx(ref.FROZEN["d"], rel=1e-14)
    assert float(ref.rate_hp(1, 1, 0.4, 0.3)) == pytest.approx(ref.FROZEN["rate"], rel=1e-14)


def _kernel_pair(accel, d) -> tuple:
    """(f, h) at one distance, from the array kernels the coefficients use."""
    f, h = _kernels(*(np.array([x], dtype=float) for x in (accel, d)))
    return float(f[0]), float(h[0])


def kernel_f(accel, d) -> float:
    return _kernel_pair(accel, d)[0]


def kernel_h(accel, d) -> float:
    return _kernel_pair(accel, d)[1]


# --- kernel_f -----------------------------------------------------------

def test_kernel_f_anchor():
    val = kernel_f(1.0, 0.4)
    assert val == pytest.approx(0.8163, abs=1e-3)
    assert val == pytest.approx(ref.FROZEN["f_1_1_04"], rel=1e-13)


def test_kernel_f_sinc_limit_at_zero_distance():
    assert kernel_f(1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_kernel_f_inertial_zero_of_sinc():
    assert kernel_f(0.0, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_kernel_f_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(0.0, 3.0)
        d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
        val = kernel_f(a, d)
        assert -1.0 <= val <= 1.0
        assert 0.0 <= 1.0 - val <= 2.0


# --- kernel_h -----------------------------------------------------------

def test_kernel_h_anchors():
    assert kernel_h(1.0, 0.15) == pytest.approx(3.1503, abs=1e-3)
    assert kernel_h(1.0, 0.15) == pytest.approx(ref.FROZEN["h_1_1_015"], rel=1e-13)
    assert kernel_h(1.0, 0.4) == pytest.approx(0.8250, abs=1e-3)
    assert kernel_h(1.0, 0.4) == pytest.approx(ref.FROZEN["h_1_1_04"], rel=1e-13)


def test_kernel_h_decays_at_large_distance():
    assert abs(kernel_h(1.0, 1e6)) < 1e-6
    assert abs(kernel_h(0.25, 2e7)) < 1e-6


@pytest.mark.parametrize("kernel", [kernel_f, kernel_h])
@pytest.mark.parametrize("bad", [dict(accel=1.0, d=math.nan),
                                 dict(accel=math.inf, d=0.4),
                                 dict(accel=1.0, d=0.0),
                                 dict(accel=1.0, d=-0.2),
                                 dict(accel=-1.0, d=0.4)])
def test_kernel_domain_errors(kernel, bad):
    with pytest.raises(DomainError):
        kernel(bad["accel"], bad["d"])


def test_kernels_even_in_frequency():
    # the library fixes omega = 1, so evenness is checked on the raw closed
    # form the kernels implement, at omega = -1
    def raw_f(om, a, d):
        return math.sin((2 * om / a) * math.asinh(a * d)) / (
            2 * om * d * math.sqrt(a * a * d * d + 1))

    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(0.1, 3.0)
        d = rng.uniform(0.05, 20.0)
        assert raw_f(-1.0, a, d) == pytest.approx(kernel_f(a, d), rel=1e-12)


def test_pythagorean_kernel_identity():
    # f^2 + h^2 = [2 d sqrt(a^2 d^2 + 1)]^(-2)
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0)
        d = np.exp(rng.uniform(np.log(0.01), np.log(100.0)))
        lhs = kernel_f(a, d) ** 2 + kernel_h(a, d) ** 2
        rhs = 1.0 / (2.0 * d * math.sqrt(a * a * d * d + 1.0)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inertial_branch_continuity():
    # closed-form accelerated evaluation vs analytic a -> 0 branch at
    # a*d = 1e-4; tolerance is relative for h, which is unbounded near d = 0
    for d in (0.15, 0.3, 0.5, 0.6, 1.0, 2.0, 2.5, 5.0, 10.0):
        a = 1e-4 / d
        assert kernel_f(a, d) == pytest.approx(kernel_f(0.0, d), rel=1e-8, abs=1e-8)
        assert kernel_h(a, d) == pytest.approx(kernel_h(0.0, d), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("kernel", [kernel_f, kernel_h])
def test_inertial_branch_agreement_bound(kernel):
    # the accelerated form departs from the inertial one at second order in
    # a*d: by at most (a*d)^2 (d/3 + 1/2) in units of the envelope 1/(2d),
    # from just above INERTIAL_SWITCH up to a*d = 1e-4
    for ad in (INERTIAL_SWITCH * (1.0 + 1e-9), 1e-5, 1e-4):
        for d in np.geomspace(0.005, 200.0, 121):
            diff = abs(kernel(ad / d, d) - kernel(0.0, d)) * 2.0 * d
            assert diff <= 1.01 * ad * ad * (d / 3.0 + 0.5) + 1e-14


def _bits(*values):
    return [float.hex(v) for v in values]


def _separate_kernels(accel, d):
    """kernel_f and kernel_h each written out on its own, as in the docstrings:
    the shared phase and denominator must not change a bit of either."""
    if accel * d < INERTIAL_SWITCH:
        x = 2.0 * d
        return math.sin(x) / x, math.cos(2.0 * d) / (2.0 * d)
    return (math.sin((2.0 / accel) * math.asinh(accel * d))
            / (2.0 * d * math.sqrt(accel * accel * d * d + 1.0)),
            math.cos((2.0 / accel) * math.asinh(accel * d))
            / (2.0 * d * math.sqrt(accel * accel * d * d + 1.0)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(d=st.floats(1e-6, 1e4), accel=st.one_of(st.just(0.0), st.floats(0.0, 1e2)),
       near_switch=st.booleans(), ratio=st.floats(0.5, 2.0))
def test_kernel_pair_is_bitwise_kernel_f_and_h(d, accel, near_switch, ratio):
    if near_switch:  # accel*d within a factor 2 of INERTIAL_SWITCH, either side
        accel = ratio * INERTIAL_SWITCH / d
    assert _bits(*_kernel_pair(accel, d)) == _bits(*_separate_kernels(accel, d))


def test_kernel_pair_takes_both_branches_at_the_switch():
    d = 0.7
    below, above = INERTIAL_SWITCH * (1.0 - 1e-12) / d, INERTIAL_SWITCH / d
    assert below * d < INERTIAL_SWITCH <= above * d
    for accel in (0.0, below, above):
        assert _bits(*_kernel_pair(accel, d)) == _bits(*_separate_kernels(accel, d))
    with pytest.raises(DomainError):
        _kernel_pair(1.0, 0.0)


def _coefficients_by_kernel(a, z, l):
    """The five rates of compute_coefficients' docstring, written out from
    the public kernels."""
    thermal = coth(math.pi / a) if a > 0.0 else 1.0
    diag = math.sqrt(l * l / 4.0 + z * z)
    self_ = 1.0 - kernel_f(a, z)
    cross = kernel_f(a, l / 2.0) - kernel_f(a, diag)
    return (0.25 * thermal * self_, 0.25 * thermal * cross, 0.25 * self_, 0.25 * cross,
            0.25 * (kernel_h(a, l / 2.0) - kernel_h(a, diag)))


_DISTANCE = st.floats(1e-3, 1e4)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(z=_DISTANCE, l=_DISTANCE, accel=st.floats(0.0, 1e2),
       branch=st.sampled_from(["inertial", "switch", "any"]), ratio=st.floats(0.5, 2.0),
       at=st.sampled_from(["z", "l/2", "diag"]))
def test_float_level_kernels_are_bitwise_their_wrappers(z, l, accel, branch, ratio, at):
    # `branch` puts a/omega at 0, or accel*d within a factor 2 of
    # INERTIAL_SWITCH (either side) for one of the three distances
    if branch == "inertial":
        accel = 0.0
    elif branch == "switch":
        d = {"z": z, "l/2": l / 2.0, "diag": math.sqrt(l * l / 4.0 + z * z)}[at]
        accel = ratio * INERTIAL_SWITCH / d
    values = _coefficients(accel, z, l)
    coeffs = compute_coefficients(SystemParams(accel=accel, z=z, l=l))
    assert _bits(*values) == _bits(*dataclasses.astuple(coeffs)) == \
        _bits(*_coefficients_by_kernel(accel, z, l))
    for c in (coeffs, coeffs.without_d()):
        assert _bits(_generation_rate(c.a1, c.a2, c.b1, c.d)) == \
            _bits(generation_rate(c).rate) == \
            _bits(4.0 * math.hypot(c.a2, c.d) - 4.0 * math.sqrt(max(c.a1 ** 2 - c.b1 ** 2, 0.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b1=st.floats(1e-6, 1.0), ratio=st.floats(0.0, 0.999), a2=st.floats(-1.0, 1.0),
       d=st.floats(-1.0, 1.0))
def test_float_level_rate_and_wrapper_raise_the_same_disc_error(b1, ratio, a2, d):
    a1 = ratio * b1  # a1^2 - b1^2 < 0 well beyond the roundoff allowance
    with pytest.raises(DomainError, match="invalid coefficient set") as bare:
        _generation_rate(a1, a2, b1, d)
    with pytest.raises(DomainError) as wrapped:
        generation_rate(CoefficientSet(a1, a2, b1, 0.0, d))
    assert str(bare.value) == str(wrapped.value)


def test_float_level_coefficients_raise_the_wrapper_errors():
    for z, l in ((1e155, 0.3), (0.4, 1e200)):  # the diagonal distance overflows
        with pytest.raises(DomainError, match="d must be > 0, got inf") as bare:
            _coefficients(1.0, z, l)
        with pytest.raises(DomainError) as wrapped:
            compute_coefficients(SystemParams.from_dimensionless(z, 1.0, l))
        assert str(bare.value) == str(wrapped.value)


# --- the array kernels against the plain-float reference ---------------------

def _reference(fn, *args):
    """fn(*args), or the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return exc


def _assert_elementwise(kernel, reference, columns):
    """`kernel` over the columns (1-D arrays of one size) against `reference`
    at each element: a batch holding a failing element raises, the failing
    element alone raises the reference's message, and the other elements
    together give the reference's bits."""
    expected = [_reference(reference, *args) for args in zip(*(c.tolist() for c in columns))]
    good = np.array([not isinstance(e, DomainError) for e in expected], dtype=bool)
    if not good.all():
        with pytest.raises(DomainError):
            kernel(*columns)
    for i in np.flatnonzero(~good):
        with pytest.raises(DomainError) as alone:
            kernel(*(c[i:i + 1] for c in columns))
        assert str(alone.value) == str(expected[i])
    got = kernel(*(c[good] for c in columns))
    want = [e for e, ok in zip(expected, good) if ok]
    if isinstance(got, np.ndarray):  # one column, else a tuple of them
        got, want = [got], [(e,) for e in want]
    assert [_bits(*column) for column in got] == \
        [_bits(*(e[k] for e in want)) for k in range(len(got))]


def _assert_array_kernels_match_the_reference(points):
    """_kernels at the three distances of each point, _coefficients, and
    _generation_rate of both variants of every point, bit for bit."""
    a, z, l = (np.array(c, dtype=float) for c in zip(*points))
    with np.errstate(all="ignore"):
        distances = np.concatenate([l / 2.0, np.sqrt(l * l / 4.0 + z * z), z])
    _assert_elementwise(_kernels, lambda *c: float_ref.kernel_pair(1.0, *c),
                        (np.tile(a, 3), distances))
    _assert_elementwise(_coefficients, lambda *c: float_ref.coefficients(1.0, *c),
                        (a, z, l))
    coeffs = [_reference(float_ref.coefficients, 1.0, *p) for p in points]
    rows = np.array([c for c in coeffs if not isinstance(c, DomainError)]).reshape(-1, 5)
    for d in (rows[:, 4], np.zeros(len(rows))):
        _assert_elementwise(_generation_rate, float_ref.generation_rate,
                            (rows[:, 0], rows[:, 1], rows[:, 2], d))


_LOG = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e) | \
    st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)  # and the figures' decades


@st.composite
def _grid_points(draw):
    """(a/omega, omega*z, omega*L) on a log grid: a/omega = 0, anywhere on
    the grid or in the figures' range, or with a*d within a factor 2 of
    INERTIAL_SWITCH for one of the three distances; products a*d past the
    float range overflow the phase."""
    z, l = draw(_LOG), draw(_LOG)
    kind = draw(st.sampled_from(["inertial", "log", "figures", "switch"]))
    if kind == "inertial":
        return 0.0, z, l
    if kind != "switch":
        return draw(_LOG if kind == "log" else st.floats(0.02, 3.0)), z, l
    d = draw(st.sampled_from([z, l / 2.0, math.sqrt(l * l / 4.0 + z * z)]))
    a = draw(st.floats(0.5, 2.0)) * INERTIAL_SWITCH / d if 0.0 < d < math.inf else 1.0
    return (a if math.isfinite(a) else 1.0), z, l


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(_grid_points(), min_size=1, max_size=12))
def test_array_kernels_are_bitwise_the_float_reference(points):
    _assert_array_kernels_match_the_reference(points)


def test_array_kernels_are_bitwise_the_float_reference_on_the_extreme_grid():
    lengths, accels = (1e-300, 1e-8, 0.4, 1e150, 1e300), (0.0, 1.0, 1e160, 1e300)
    _assert_array_kernels_match_the_reference(
        [(a, z, l) for a in accels for z in lengths for l in lengths])


def _preset_points(figures=range(2, 11)) -> list:
    """The (a/omega, omega*z, omega*L) of every grid point of the figure
    presets at their default density."""
    points = []
    for figure in figures:
        for spec in preset(figure):
            for g in spec.grid if spec.axis != "tau" else (None,):
                dims = {**spec.fixed, spec.axis: g}
                points.append((dims["a_over_omega"], dims["z_omega"], dims["l_omega"]))
    return points


def test_array_kernels_are_bitwise_the_float_reference_on_the_preset_grids():
    _assert_array_kernels_match_the_reference(_preset_points())


_MAGNITUDE = st.floats(-320.0, 307.0).map(lambda e: 10.0 ** e) | st.just(0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(_MAGNITUDE, st.floats(0.0, 1.2), _MAGNITUDE, _MAGNITUDE,
                               st.booleans()), min_size=1, max_size=12))
def test_array_rate_is_bitwise_the_float_reference(rows):
    # b1 = ratio * a1: ratios above 1 make a1^2 - b1^2 negative, and
    # magnitudes past 1e154 overflow the squares
    a1, b1 = (np.array(c) for c in zip(*[(x, r * x) for x, r, *_ in rows]))
    a2, d = (np.array(c) * np.where([row[4] for row in rows], -1.0, 1.0)
             for c in zip(*[row[2:4] for row in rows]))
    _assert_elementwise(_generation_rate, float_ref.generation_rate, (a1, a2, b1, d))


def test_numpy_sin_cos_sqrt_are_libm_on_the_preset_grids():
    """The kernels take sin, cos and sqrt from numpy and asinh, exp, expm1,
    pow and hypot from libm; the emitted bytes hold while numpy's three
    agree with libm's bit for bit on the arguments the figure presets
    produce, so a numpy or libm update that breaks this fails here by name
    instead of as a digest mismatch."""
    arguments = {"sin": [], "cos": [], "sqrt": []}
    for a, z, l in _preset_points():
        arguments["sqrt"].append(l * l / 4.0 + z * z)
        for d in (l / 2.0, math.sqrt(l * l / 4.0 + z * z), z):
            if a * d < INERTIAL_SWITCH:
                phase = 2.0 * d
            else:
                phase = (2.0 / a) * math.asinh(a * d)
                arguments["sqrt"].append(a * a * d * d + 1.0)
            arguments["sin"].append(phase)
            arguments["cos"].append(phase)
        a1, _, b1, _, _ = float_ref.coefficients(1.0, a, z, l)
        arguments["sqrt"].append(max(a1 ** 2 - b1 ** 2, 0.0))
    for name, xs in arguments.items():
        ours = getattr(np, name)(np.array(xs)).tolist()
        differ = sum(float.hex(x) != float.hex(y)
                     for x, y in zip(ours, map(getattr(math, name), xs)))
        assert differ == 0, \
            f"numpy's {name} differs from libm's at {differ} of {len(xs)} preset arguments"


_RATE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=st.builds(CoefficientSet, _RATE, _RATE, _RATE, _RATE, _RATE))
def test_without_d_equals_replace(c):
    lean = c.without_d()
    assert type(lean) is CoefficientSet
    assert lean == dataclasses.replace(c, d=0.0)
    assert _bits(*dataclasses.astuple(lean)) == \
        _bits(*dataclasses.astuple(dataclasses.replace(c, d=0.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a1", "a2", "b1", "b2", "d"])
def test_coefficient_set_names_the_non_finite_field(field, bad):
    values = {"a1": 0.1, "a2": 0.05, "b1": 0.1, "b2": 0.05, "d": 0.2, field: bad}
    with pytest.raises(DomainError, match=f"coefficient {field} must be finite"):
        CoefficientSet(**values)
    if field != "d":
        with pytest.raises(DomainError, match=f"coefficient {field} must be finite"):
            CoefficientSet(**{**values, "d": math.nan})  # the first bad field


# --- coth ----------------------------------------------------------------

def test_coth_detailed_balance_identity():
    for x in (0.1, 1.0, 5.0, 20.0, 50.0):
        assert (coth(x) - 1.0) / (coth(x) + 1.0) == pytest.approx(math.exp(-2.0 * x),
                                                                  rel=1e-13)


def test_coth_saturates_without_overflow():
    assert coth(1000.0) == 1.0
    assert coth(1e6) == 1.0
    assert coth(-1000.0) == -1.0
    assert coth(0.5) == pytest.approx(float(mp.coth(0.5)), rel=1e-15)
    with pytest.raises(DomainError):
        coth(0.0)


# --- compute_coefficients -------------------------------------------------

def test_coefficient_anchor(anchor_params):
    c = compute_coefficients(anchor_params)
    for name in ("a1", "a2", "b1", "b2", "d"):
        assert getattr(c, name) == pytest.approx(ref.FROZEN[name], rel=1e-3)
        assert getattr(c, name) == pytest.approx(ref.FROZEN[name], rel=1e-12)


def test_coefficients_far_separation_limit():
    c = compute_coefficients(SystemParams(accel=1.0, z=0.4, l=1e9))
    assert abs(c.a2) < 1e-9 and abs(c.b2) < 1e-9 and abs(c.d) < 1e-9
    assert c.a1 > 0.0


def test_coefficients_far_boundary_limit():
    c = compute_coefficients(SystemParams(accel=1.0, z=1e9, l=0.3))
    assert c.a1 == pytest.approx(coth(math.pi) / 4.0, rel=1e-9)
    assert c.b1 == pytest.approx(0.25, rel=1e-9)


def test_detailed_balance_ratio_of_coefficients():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = SystemParams(accel=rng.uniform(0.1, 3.0), z=rng.uniform(0.1, 30.0),
                         l=rng.uniform(0.1, 10.0))
        c = compute_coefficients(p)
        t = math.tanh(math.pi / p.accel)
        assert c.b1 / c.a1 == pytest.approx(t, rel=1e-12)
        if c.a2 != 0.0:
            assert c.b2 / c.a2 == pytest.approx(t, rel=1e-12)
        assert c.a1 > 0.0
        assert c.a1 ** 2 - c.b1 ** 2 >= 0.0


def test_oracle_rates_scale_with_omega_through_the_dimensionless_inputs():
    # the engine works in units of omega; the 60-digit oracle keeps omega,
    # and its rates at (omega, a, z, L) are those at (1, a/omega, omega*z, omega*L)
    rng = np.random.default_rng(19)
    for _ in range(20):
        om = mp.mpf(rng.uniform(0.5, 2.0))
        a, z, l = rng.uniform(0.1, 3.0), rng.uniform(0.1, 30.0), rng.uniform(0.1, 10.0)
        scaled = ref.coefficients_hp(1, a / om, om * z, om * l)
        for got, want in zip(ref.coefficients_hp(om, a, z, l), scaled):
            assert abs(got - want) <= mp.mpf("1e-50") * abs(want)


def test_system_params_validation():
    with pytest.raises(DomainError):
        SystemParams(accel=-0.1, z=0.4, l=0.3)
    with pytest.raises(DomainError):
        SystemParams(accel=1.0, z=-0.4, l=0.3)
    with pytest.raises(DomainError):
        SystemParams(accel=1.0, z=0.4, l=0.0)
    p = SystemParams.from_dimensionless(z_omega=0.8, a_over_omega=0.5, l_omega=0.6)
    assert p == SystemParams(accel=0.5, z=0.8, l=0.6) == SystemParams(0.5, 0.8, 0.6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["accel", "z", "l"])
def test_system_params_names_each_bad_field(field, bad):
    values = {"accel": 1.0, "z": 0.4, "l": 0.3}
    if field == "accel" and bad == 0.0:
        assert SystemParams(**{**values, "accel": bad}).accel == 0.0
        assert SystemParams(**{**values, "accel": -0.0}).accel == 0.0
        return
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        SystemParams(**{**values, field: bad})
