"""Sweep specs, deterministic execution, figure presets, and serialization."""

import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import float_reference as ref
import mirroratoms.concurrence as concurrence_mod
import mirroratoms.sweep as sweep_mod
from mirroratoms import (CoefficientSet, DomainError, InvariantError, SweepResult,
                         SweepRow, SweepSpec, SystemParams, compute_coefficients,
                         emit, generation_rate, load_result, prepare_initial,
                         preset, run_sweep)
from mirroratoms.correlations import INERTIAL_SWITCH
from mirroratoms.errors import each_or_alone
from mirroratoms.sweep import (CSV_COLUMNS, VARIANTS, _fnum, _jnum, _jstr, render_csv,
                               render_json)


def rate_spec(grid=(0.2, 0.4, 1.0), variants=("with_D", "without_D")):
    return SweepSpec(axis="z_omega", grid=grid,
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3},
                     quantity="rate", variants=variants)


def from_rows(spec, rows):
    """The SweepResult whose `rows` view is `rows`, a sequence of SweepRows."""
    cells = [(r.axis_value, r.variant, r.value,
              *((None,) * 5 if r.coeffs is None else astuple(r.coeffs)), r.error)
             for r in rows]
    return SweepResult(spec, list(zip(*cells)) or [()] * 9)


# --- spec validation -------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(DomainError):
        SweepSpec(axis="q", grid=(1.0,), fixed={}, quantity="rate")
    with pytest.raises(DomainError):
        rate_spec(grid=())
    with pytest.raises(DomainError):
        rate_spec(grid=(0.4, 0.4))
    with pytest.raises(DomainError):
        rate_spec(grid=(-0.1, 0.4))
    with pytest.raises(DomainError):
        SweepSpec(axis="z_omega", grid=(0.4,), fixed={"l_omega": 0.3},
                  quantity="rate")  # missing a_over_omega
    with pytest.raises(DomainError):
        SweepSpec(axis="z_omega", grid=(0.4,),
                  fixed={"a_over_omega": -0.1, "l_omega": 0.3}, quantity="rate")
    with pytest.raises(DomainError):
        rate_spec(variants=())
    with pytest.raises(DomainError):
        rate_spec(variants=("with_d",))
    with pytest.raises(DomainError):
        SweepSpec(axis="z_omega", grid=(0.4,),
                  fixed={"a_over_omega": 1.0, "l_omega": 0.3},
                  quantity="concurrence_t")
    with pytest.raises(DomainError):
        SweepSpec(axis="tau", grid=(0.0, 1.0),
                  fixed={"a_over_omega": 1.0, "l_omega": 0.3, "z_omega": 0.4},
                  quantity="rate")


def test_spec_admits_the_inertial_limit():
    # a/omega = 0 is in SystemParams' domain, so it is in a sweep's too
    fixed = SweepSpec(axis="z_omega", grid=(0.4,), quantity="rate",
                      fixed={"a_over_omega": 0.0, "l_omega": 0.3})
    axis = SweepSpec(axis="a_over_omega", grid=(0.0, 0.5), quantity="rate",
                     fixed={"z_omega": 0.4, "l_omega": 0.3})
    exact = compute_coefficients(SystemParams(0.0, 0.4, 0.3))
    assert run_sweep(fixed).rows[0].coeffs == exact
    assert run_sweep(axis).rows[0].coeffs == exact
    with pytest.raises(DomainError, match="fixed parameters"):
        SweepSpec(axis="z_omega", grid=(0.4,), quantity="rate",
                  fixed={"a_over_omega": -0.1, "l_omega": 0.3})
    with pytest.raises(DomainError, match="out of range"):
        SweepSpec(axis="a_over_omega", grid=(-0.1, 0.5), quantity="rate",
                  fixed={"z_omega": 0.4, "l_omega": 0.3})


@pytest.mark.parametrize("axis", ["z_omega", "tau"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_grid(axis, bad):
    fixed = {"a_over_omega": 1.0, "l_omega": 0.3}
    if axis == "tau":
        fixed["z_omega"] = 0.4
    quantity = "concurrence_t" if axis == "tau" else "rate"
    for grid in ((0.5, bad), (bad, 0.5), (bad,)):
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(axis=axis, grid=grid, fixed=fixed, quantity=quantity)


@pytest.mark.parametrize("change", [
    {"grid": "14"}, {"grid": [True]}, {"grid": ["0.5"]},
    {"fixed": {"a_over_omega": True, "l_omega": 0.3}},
    {"fixed": {"a_over_omega": "0.5", "l_omega": 0.3}},
], ids=json.dumps)
def test_spec_rejects_strings_and_booleans_as_numbers(change):
    # a string grid used to sweep its characters: "14" ran omega*z = 1 and 4
    with pytest.raises(DomainError, match="must hold numbers"):
        SweepSpec.from_dict({**rate_spec().to_dict(), **change})


def test_spec_accepts_ints_and_numpy_floats():
    spec = rate_spec(grid=(1, np.float64(2.5)))
    assert spec.grid == (1.0, 2.5) and all(type(g) is float for g in spec.grid)


def test_spec_normalizes_variant_order():
    spec = rate_spec(variants=("without_D", "with_D"))
    assert spec.variants == ("with_D", "without_D")


def test_spec_round_trips_through_dict():
    spec = rate_spec()
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(DomainError):
        SweepSpec.from_dict({"axis": "z_omega"})
    with pytest.raises(DomainError):
        SweepSpec.from_dict({**spec.to_dict(), "bogus": 1})


@st.composite
def valid_specs(draw):
    axis = draw(st.sampled_from(sweep_mod.AXES))
    if axis == "tau":
        quantity, low = "concurrence_t", 0.0
    else:
        quantity = draw(st.sampled_from([q for q in sweep_mod.QUANTITIES
                                         if q != "concurrence_t"]))
        low = 5e-324
    grid = sorted(draw(st.sets(st.floats(min_value=low, allow_infinity=False),
                               min_size=1, max_size=6)))
    keys = [k for k in ("z_omega", "a_over_omega", "l_omega") if k != axis]
    fixed = {k: draw(st.floats(min_value=5e-324, allow_infinity=False)) for k in keys}
    variants = draw(st.sets(st.sampled_from(sweep_mod.VARIANTS), min_size=1))
    return SweepSpec(axis=axis, grid=grid, fixed=fixed, quantity=quantity,
                     variants=tuple(variants))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=valid_specs())
def test_spec_dict_round_trip_property(spec):
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(sweep_mod.AXES + sweep_mod.QUANTITIES + sweep_mod.VARIANTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def perturbed_spec_dicts(draw):
    """The dict of a valid spec with one key dropped, or with one key (the
    spec's own or an unknown one) set to any JSON value."""
    doc = draw(valid_specs()).to_dict()
    key = draw(st.sampled_from([*doc, "extra"]))
    if key in doc and draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.one_of(perturbed_spec_dicts(), _JSON))
def test_spec_from_any_json_builds_or_raises_domain_error(doc):
    try:
        spec = SweepSpec.from_dict(doc)
    except DomainError:
        return
    assert SweepSpec.from_dict(spec.to_dict()) == spec


# --- run_sweep ---------------------------------------------------------------

def test_single_point_sweep_matches_direct_call():
    result = run_sweep(rate_spec(grid=(0.4,)))
    params = SystemParams.from_dimensionless(z_omega=0.4, a_over_omega=1.0,
                                             l_omega=0.3)
    coeffs = compute_coefficients(params)
    with_d, without_d = result.rows
    assert with_d.value == generation_rate(coeffs).rate  # bit-identical
    assert without_d.value == generation_rate(coeffs.without_d()).rate
    assert with_d.coeffs == coeffs


def test_rows_ordered_grid_major_with_d_first():
    result = run_sweep(rate_spec())
    assert [r.variant for r in result.rows] == ["with_D", "without_D"] * 3
    assert [r.axis_value for r in result.rows] == [0.2, 0.2, 0.4, 0.4, 1.0, 1.0]


def _count_coefficient_calls(monkeypatch) -> list:
    """Count coefficient evaluations through both seams of a sweep:
    `compute_coefficients` (cmax and tau sweeps) and the float-level
    `_coefficients` (rate and coefficients sweeps)."""
    calls = []
    for name in ("compute_coefficients", "_coefficients"):
        def counted(*args, real=getattr(sweep_mod, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sweep_mod, name, counted)
    return calls


@pytest.mark.parametrize("quantity", ["rate", "cmax"])
def test_coefficients_computed_once_per_grid_point(monkeypatch, quantity):
    spec = SweepSpec(axis="z_omega", grid=(0.4, 1.0),
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3}, quantity=quantity)
    calls = _count_coefficient_calls(monkeypatch)
    result = run_sweep(spec)
    # one call over the whole grid, whose omega*z is the second argument
    assert [list(np.atleast_1d(args[1])) for args in calls] == [list(spec.grid)]
    assert len(result.rows) == 2 * len(spec.grid)
    assert all(r.error is None for r in result.rows)


def test_coefficient_failure_marks_every_variant(monkeypatch):
    calls = []

    def refused(*args):
        calls.append(args)
        raise DomainError("forced coefficient failure")

    monkeypatch.setattr(sweep_mod, "_coefficients", refused)
    result = run_sweep(rate_spec(grid=(0.4,)))
    assert len(calls) == 1
    assert [(r.variant, r.value, r.coeffs, r.error) for r in result.rows] == [
        ("with_D", None, None, "forced coefficient failure"),
        ("without_D", None, None, "forced coefficient failure")]


def _failing_where_d_is_zero(rate, message):
    """`rate`, raising DomainError(message) for a batch that holds a d of 0."""
    def flaky(a1, a2, b1, d):
        if np.any(np.asarray(d) == 0.0):
            raise DomainError(message)
        return rate(a1, a2, b1, d)
    return flaky


def test_row_errors_are_local(monkeypatch):
    flaky = _failing_where_d_is_zero(sweep_mod._generation_rate, "forced failure")
    monkeypatch.setattr(sweep_mod, "_generation_rate", flaky)
    result = run_sweep(rate_spec())
    calls = [(r.variant, r.error is None) for r in result.rows]
    assert calls == [("with_D", True), ("without_D", False)] * 3
    bad = result.rows[1]
    assert bad.value is None and bad.error == "forced failure"
    assert bad.coeffs is not None  # coefficients were computed before the failure


def _per_point_rows(spec, rate=ref.generation_rate):
    """A rate, coefficients or cmax sweep row by row: the coefficients and the
    rate from the plain-float reference, the maximum from max_concurrence."""
    rows = []
    for g in spec.grid:
        dims = {**spec.fixed, spec.axis: g}
        try:
            full = CoefficientSet(*ref.coefficients(
                1.0, dims["a_over_omega"], dims["z_omega"], dims["l_omega"]))
        except DomainError as exc:
            rows.extend(SweepRow(g, v, None, None, str(exc)) for v in spec.variants)
            continue
        for variant in spec.variants:
            coeffs = full if variant == "with_D" else full.without_d()
            value = None
            try:
                if spec.quantity == "rate":
                    value = rate(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.d)
                elif spec.quantity == "cmax":
                    value = concurrence_mod.max_concurrence(None, coeffs=coeffs)[1]
            except DomainError as exc:
                rows.append(SweepRow(g, variant, None, coeffs, str(exc)))
            else:
                rows.append(SweepRow(g, variant, value, coeffs))
    return tuple(rows)


# (axis, grid, fixed, whether a coefficient set fails): omega*z = 1e155 or
# omega*L = 1e200 overflows the diagonal distance to inf
_COLUMNAR_SPECS = [
    pytest.param("z_omega", (0.4, 1e155, 1e200), {"a_over_omega": 1.0, "l_omega": 0.3},
                 True, id="z-overflow"),
    pytest.param("a_over_omega",
                 (0.0, 0.5 * INERTIAL_SWITCH / 0.4, 2.0 * INERTIAL_SWITCH / 0.4, 2.7),
                 {"z_omega": 0.4, "l_omega": 0.3}, False, id="a-switch"),
    pytest.param("l_omega", (0.05, 3.0, 1e200), {"a_over_omega": 0.0, "z_omega": 20.0},
                 True, id="l-overflow-inertial"),
]


@pytest.mark.parametrize("variants", [VARIANTS, ("without_D",)], ids=["both", "without_D"])
@pytest.mark.parametrize("quantity", ["rate", "coefficients"])
@pytest.mark.parametrize("failing_rate", [False, True], ids=["", "rate-fails"])
@pytest.mark.parametrize("axis, grid, fixed, failing_point", _COLUMNAR_SPECS)
def test_columns_match_per_point_rows(monkeypatch, tmp_path, axis, grid, fixed,
                                      failing_point, failing_rate, quantity, variants):
    rate = ref.generation_rate
    if failing_rate:  # the rate of without_D fails, in the sweep and the reference
        rate = _failing_where_d_is_zero(rate, "forced rate failure")
        monkeypatch.setattr(sweep_mod, "_generation_rate", _failing_where_d_is_zero(
            sweep_mod._generation_rate, "forced rate failure"))
    spec = SweepSpec(axis=axis, grid=grid, fixed=fixed, quantity=quantity,
                     variants=variants)
    result, expected = run_sweep(spec), _per_point_rows(spec, rate)
    assert result.rows == expected
    assert any(r.error is not None for r in expected) == \
        (failing_point or failing_rate and quantity == "rate")
    by_rows = from_rows(spec, expected)
    assert result == by_rows
    assert render_csv(result) == render_csv(by_rows) == _csv_by_cell(by_rows)
    assert render_json(result) == render_json(by_rows) == _json_by_cell(by_rows)
    path = emit(result, "json", tmp_path / "r.json")
    assert render_json(load_result(path)) == path.read_text()
    for part, variant in zip(result.split_variants(), spec.variants):
        alone = replace(spec, variants=(variant,))
        assert part == from_rows(alone, [r for r in expected if r.variant == variant])
        assert render_json(part) == render_json(run_sweep(alone))


def test_split_variants_does_not_validate_the_grid_again(monkeypatch):
    result = run_sweep(rate_spec())
    monkeypatch.setattr(sweep_mod, "_number", None)  # any validation would fail
    assert [p.spec.variants for p in result.split_variants()] == [("with_D",), ("without_D",)]


def test_cmax_sweep_matches_per_point_rows(monkeypatch):
    # omega*z = 1e155 fails the coefficients; a forced failure of the
    # without_D search at omega*z = 1 fails the search of all rows, whose
    # halves are searched again down to that row, and marks that row alone
    real = concurrence_mod._search

    def flaky(rates, *args, **kwargs):
        if ((rates[:, 4] == 0.0) & (rates[:, 0] == bad.a1)).any():
            raise DomainError("forced search failure")
        return real(rates, *args, **kwargs)

    spec = SweepSpec(axis="z_omega", grid=(0.4, 1.0, 1e155),
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3}, quantity="cmax")
    bad = compute_coefficients(SystemParams.from_dimensionless(1.0, 1.0, 0.3))
    monkeypatch.setattr(concurrence_mod, "_search", flaky)
    result, expected = run_sweep(spec), _per_point_rows(spec)
    assert result.rows == expected
    assert [(r.axis_value, r.variant) for r in expected if r.error is not None] == \
        [(1.0, "without_D"), (1e155, "with_D"), (1e155, "without_D")]
    assert result.rows[3].error == "forced search failure"
    assert render_json(result) == render_json(from_rows(spec, expected))


def test_result_takes_only_columns():
    spec = rate_spec()
    result = run_sweep(spec)
    assert SweepResult(spec, result.columns) == result
    assert SweepResult(spec, columns=map(list, result.columns)) == result
    assert from_rows(spec, result.rows) == result
    with pytest.raises(TypeError):
        SweepResult(spec, rows=result.rows)


def test_tau_axis_sweep_evaluates_concurrence():
    spec = SweepSpec(axis="tau", grid=(0.0, 0.5, 1.0),
                     fixed={"z_omega": 0.4, "a_over_omega": 1.0, "l_omega": 0.3},
                     quantity="concurrence_t", variants=("with_D",))
    values = [r.value for r in run_sweep(spec).rows]
    assert values[0] == pytest.approx(0.0, abs=1e-14)
    assert values[1] > 0.0


def _per_stamp(spec):
    """The reference path: every tau stamp and variant evaluated on its own,
    each from its own SystemParams and CoefficientSet; a failing stamp
    carries its error marker."""
    rows = []
    for g in spec.grid:
        full = compute_coefficients(SystemParams.from_dimensionless(**spec.fixed))
        for variant in spec.variants:
            coeffs = full if variant == "with_D" else full.without_d()
            try:
                value = float(sweep_mod.evolve_closed(prepare_initial("ten"), coeffs,
                                                      [g]).concurrence[0])
            except InvariantError as exc:
                rows.append(SweepRow(g, variant, None, coeffs, str(exc)))
            else:
                rows.append(SweepRow(g, variant, value, coeffs))
    return from_rows(spec, rows)


def test_tau_sweep_bytes_match_per_stamp_evaluation():
    for spec in (preset(5)[0], preset(6)[-1]):
        whole, alone = run_sweep(spec), _per_stamp(spec)
        assert render_csv(whole) == render_csv(alone)
        assert render_json(whole) == render_json(alone)


def test_tau_sweep_calls_evolve_once_per_variant(monkeypatch):
    spec = preset(5)[1]
    stamps = []
    real = sweep_mod.evolve_closed

    def counted(initial, coeffs, times):
        stamps.append(len(times))
        return real(initial, coeffs, times)

    monkeypatch.setattr(sweep_mod, "evolve_closed", counted)
    run_sweep(spec)
    assert stamps == [len(spec.grid)] * len(spec.variants)


def test_tau_sweep_failure_falls_back_to_per_stamp_markers(monkeypatch):
    spec = preset(6)[2]
    bad = spec.grid[7]
    real = sweep_mod.evolve_closed

    def stamp_only(initial, coeffs, times):
        if len(times) > 1:
            raise InvariantError("whole grid refused")
        if times[0] == bad and coeffs.d == 0.0:
            raise InvariantError("forced failure")
        return real(initial, coeffs, times)

    monkeypatch.setattr(sweep_mod, "evolve_closed", stamp_only)
    result = run_sweep(spec)
    failed = [(r.axis_value, r.variant, r.error, r.coeffs is not None)
              for r in result.rows if r.error is not None]
    assert failed == [(bad, "without_D", "forced failure", True)]
    assert render_csv(result) == render_csv(_per_stamp(spec))
    monkeypatch.undo()
    healthy = run_sweep(spec).rows
    assert [r for r in result.rows if r.error is None] == \
        [r for r in healthy if (r.axis_value, r.variant) != (bad, "without_D")]


def test_tau_sweep_re_evaluates_only_the_failing_variant(monkeypatch):
    spec = preset(5)[0]
    calls = []
    real = sweep_mod.evolve_closed

    def without_d_refused(initial, coeffs, times):
        calls.append((coeffs.d == 0.0, len(times)))
        if coeffs.d == 0.0 and len(times) > 1:
            raise InvariantError("whole grid refused")
        return real(initial, coeffs, times)

    monkeypatch.setattr(sweep_mod, "evolve_closed", without_d_refused)
    result = run_sweep(spec)
    n = len(spec.grid)
    assert calls == [(False, n)] + [(True, size) for size in _halving(n)]
    assert calls.count((True, 1)) == n  # every without_D stamp is evaluated
    assert all(error is None for error in result.columns.error)
    assert render_csv(result) == render_csv(_per_stamp(spec))


# --- failing batches ------------------------------------------------------------

def _halving(n: int) -> list:
    """The batch sizes, in call order, that `each_or_alone` gives a kernel
    that refuses every batch of more than one of its n items."""
    if n == 1:
        return [1]
    return [n, *_halving(n // 2), *_halving(n - n // 2)]


@pytest.mark.parametrize("failing", [(), (0,), (1023,), (3, 700), (5, 6, 7, 8, 500),
                                     tuple(range(0, 1024, 97))])
def test_each_or_alone_isolates_failures_in_bounded_calls(failing):
    calls = []

    def kernel(items):
        calls.append(len(items))
        bad = [i for i in items if i in failing]
        if bad:
            raise DomainError(f"item {bad[0]} refused")
        return [2 * i for i in items]

    found = each_or_alone(kernel, list(range(1024)))
    # each failing item carries the error of a call on it alone
    assert [str(f) if isinstance(f, DomainError) else f for f in found] == \
        [f"item {i} refused" if i in failing else 2 * i for i in range(1024)]
    assert len(calls) <= 1 + 2 * len(failing) * 10


def test_one_failing_point_costs_logarithmic_coefficient_calls(monkeypatch):
    # omega*z = 1e155 overflows the diagonal distance after 20 000 good points
    spec = SweepSpec(axis="z_omega", grid=(*np.geomspace(1e-2, 4e3, 20_000), 1e155),
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3}, quantity="rate")
    calls = _count_coefficient_calls(monkeypatch)
    result = run_sweep(spec)
    n = len(spec.grid)
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1
    with pytest.raises(DomainError) as alone:
        ref.coefficients(1.0, 1.0, 1e155, 0.3)
    assert result.columns.error[-2:] == (str(alone.value),) * 2
    assert not any(result.columns.error[:-2])


# --- presets -----------------------------------------------------------------

_PRESET_TABLE = {
    2: ("z_omega", "rate", [{"l_omega": 0.3, "a_over_omega": a} for a in (0.1, 1.0)]),
    3: ("a_over_omega", "rate", [{"z_omega": z, "l_omega": l}
                                 for z in (0.4, 20.0, 4000.0) for l in (0.3, 3.0, 30.0)]),
    4: ("l_omega", "rate", [{"a_over_omega": a, "z_omega": z}
                            for a in (0.1, 1.0) for z in (0.5, 10.0, 1000.0)]),
    5: ("tau", "concurrence_t", [{"l_omega": 0.5, "z_omega": z, "a_over_omega": a}
                                 for z in (0.4, 20.0) for a in (0.1, 2.7)]),
    6: ("tau", "concurrence_t", [{"l_omega": 1.9, "z_omega": z, "a_over_omega": a}
                                 for z in (0.4, 2.0, 20.0) for a in (0.5, 1.3)]),
    7: ("z_omega", "cmax", [{"l_omega": 0.4, "a_over_omega": a} for a in (0.1, 1.0)]),
    8: ("z_omega", "cmax", [{"l_omega": l, "a_over_omega": a}
                            for l in (4.0, 9.0) for a in (0.1, 0.5)]),
    9: ("a_over_omega", "cmax", [{"l_omega": l, "z_omega": z}
                                 for l in (0.3, 3.0, 30.0) for z in (0.4, 20.0, 4000.0)]),
    10: ("l_omega", "cmax", [{"a_over_omega": a, "z_omega": z}
                             for a in (0.1, 1.0) for z in (0.5, 10.0, 1000.0)]),
}


@pytest.mark.parametrize("figure", sorted(_PRESET_TABLE))
def test_preset_fixed_parameters_match_table(figure):
    axis, quantity, fixed_list = _PRESET_TABLE[figure]
    specs = preset(figure, points=16)
    assert len(specs) == len(fixed_list)
    for spec, fixed in zip(specs, fixed_list):
        assert spec.axis == axis
        assert spec.quantity == quantity
        assert spec.fixed == fixed
        assert spec.variants == ("with_D", "without_D")
        assert len(spec.grid) >= 16


def test_preset_rejects_out_of_range():
    for figure in (1, 11, 0):
        with pytest.raises(DomainError):
            preset(figure)


def test_preset_counts():
    assert len(preset(2, points=4)) == 2
    assert len(preset(5, points=4)) == 4
    assert len(preset(9, points=4)) == 9


# --- serialization --------------------------------------------------------------

def test_csv_header_only_for_empty_result():
    result = SweepResult(rate_spec(), [()] * 9)
    assert render_csv(result) == ("axis_value,variant,quantity,"
                                  "a1,a2,b1,b2,d,error_marker\n")


def test_csv_row_count_matches_grid_times_variants(tmp_path):
    result = run_sweep(rate_spec())
    path = emit(result, "csv", tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(rate_spec().grid) * 2


def test_floats_carry_17_significant_digits():
    result = run_sweep(rate_spec(grid=(0.1,)))
    text = render_csv(result)
    assert format(0.1, ".17g") in text  # 0.10000000000000001


def test_json_round_trip_is_byte_identical(tmp_path):
    result = run_sweep(rate_spec())
    first = emit(result, "json", tmp_path / "a.json")
    again = emit(load_result(first), "json", tmp_path / "b.json")
    assert first.read_bytes() == again.read_bytes()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(DomainError):
        emit(SweepResult(rate_spec(), [()] * 9), "yaml", tmp_path / "x")


def test_json_carries_metadata(tmp_path):
    path = emit(run_sweep(rate_spec(grid=(0.4,))), "json", tmp_path / "m.json")
    doc = json.loads(path.read_text())
    assert doc["metadata"]["spec"]["axis"] == "z_omega"
    assert doc["metadata"]["units"]["rates"] == "gamma0"
    assert set(doc["rows"][0]) == {"axis_value", "variant", "quantity", "a1",
                                   "a2", "b1", "b2", "d", "error_marker"}


# --- the row templates against cell-by-cell rendering ---------------------------

def _csv_by_cell(result):
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        c = row.coeffs
        numbers = [row.value, *([None] * 5 if c is None else [c.a1, c.a2, c.b1, c.b2, c.d])]
        cells = [_fnum(row.axis_value), row.variant,
                 *("" if x is None else _fnum(x) for x in numbers), row.error or ""]
        cells = ['"' + cell.replace('"', '""') + '"'
                 if ("," in cell or '"' in cell or "\n" in cell) else cell
                 for cell in cells]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_by_cell(result):
    spec = result.spec.to_dict()
    fixed = ", ".join(f"{_jstr(k)}: {_jnum(v)}" for k, v in spec["fixed"].items())
    grid = ", ".join(_jnum(g) for g in spec["grid"])
    variants = ", ".join(_jstr(v) for v in spec["variants"])
    units = '"lengths": "1/omega", "rates": "gamma0", "times": "1/gamma0"'
    rows = []
    for row in result.rows:
        c = row.coeffs
        coeffs = [None] * 5 if c is None else [c.a1, c.a2, c.b1, c.b2, c.d]
        rows.append(
            '    {"axis_value": %s, "variant": %s, "quantity": %s, '
            '"a1": %s, "a2": %s, "b1": %s, "b2": %s, "d": %s, "error_marker": %s}'
            % (_fnum(row.axis_value), _jstr(row.variant), _jnum(row.value),
               *map(_jnum, coeffs), "null" if row.error is None else _jstr(row.error)))
    return "\n".join([
        "{", '  "metadata": {',
        f'    "spec": {{"axis": {_jstr(spec["axis"])}, "grid": [{grid}], '
        f'"fixed": {{{fixed}}}, "quantity": {_jstr(spec["quantity"])}, '
        f'"variants": [{variants}]}},',
        f'    "version": {_jstr(sweep_mod.__version__)},',
        f'    "units": {{{units}}}', "  },", '  "rows": [', ",\n".join(rows),
        "  ]", "}"]) + "\n"


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e308, -1e308, 1.7976931348623157e308]))
_COEFFS = st.builds(CoefficientSet, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(x=st.one_of(_FINITE, st.integers(-2 ** 1000, 2 ** 1000)))
def test_fnum_is_format_of_float(x):
    # the bytes every earlier release wrote for a number
    assert _fnum(x) == format(float(x), ".17g")
_ERROR = st.text(alphabet=st.sampled_from('ab ,"\n\'\\;\u00e9'), min_size=1, max_size=12)


@st.composite
def sweep_results(draw):
    grid = sorted(draw(st.sets(st.floats(5e-324, 1.7976931348623157e308),
                               min_size=1, max_size=4)))
    spec = SweepSpec(axis="z_omega", grid=grid, quantity="rate",
                     fixed={"a_over_omega": draw(st.floats(1e-300, 1e300)),
                            "l_omega": 0.3})
    rows = draw(st.lists(st.builds(
        SweepRow, _FINITE, st.sampled_from(["with_D", "without_D", 'odd,"variant"']),
        st.none() | _FINITE, st.none() | _COEFFS, st.none() | _ERROR), max_size=8))
    return from_rows(spec, rows)


@st.composite
def emitted_results(draw):
    """Results shaped as run_sweep shapes them: one row per grid point and
    variant of the spec, in its order, with any cells."""
    spec = draw(sweep_results()).spec
    spec = replace(spec, variants=draw(st.sampled_from([VARIANTS, ("with_D",), ("without_D",)])))
    return from_rows(spec, [SweepRow(g, v, draw(st.none() | _FINITE),
                                     draw(st.none() | _COEFFS), draw(st.none() | _ERROR))
                            for g in spec.grid for v in spec.variants])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(result=sweep_results())
def test_row_templates_match_cell_by_cell_rendering(result):
    assert render_csv(result) == _csv_by_cell(result)
    assert render_json(result) == _json_by_cell(result)


def _twin(x):
    """x as a distinct float object of the same value and sign."""
    return float(repr(x))


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def shared_cell_results(draw):
    """Results whose rows share cell objects as run_sweep's rows do, next to
    cells that only look shared: equal values as distinct objects, 0.0
    against -0.0, a1..b2 that differ between the variants of a point, and
    error markers that need quoting."""
    values = st.none() | _FINITE | _SIGNED_ZERO
    grid = sorted({abs(g): g for g in draw(st.lists(
        st.floats(0.0, 1e300) | _SIGNED_ZERO, min_size=1, max_size=4))}.values())
    spec = SweepSpec(axis="tau", grid=grid, quantity="concurrence_t",
                     fixed={"z_omega": 0.4, "a_over_omega": 1.0, "l_omega": 0.3},
                     variants=draw(st.sampled_from([VARIANTS, ("with_D",), ("without_D",)])))

    def like(x):  # x itself, or a cell that only looks like it
        return draw(st.sampled_from([x, x, _twin(x), -x]))

    cells = []
    for g in grid:
        x = like(g)
        block = draw(st.none() | st.lists(_SIGNED_ZERO | _FINITE, min_size=4, max_size=4))
        for variant in draw(st.sampled_from([spec.variants, (*spec.variants, 'odd,"v"')])):
            own = None if block is None else list(block)
            if own is not None:  # at most one cell changed, the others shared
                k = draw(st.integers(0, 4))
                own[k:k + 1] = [like(c) for c in own[k:k + 1]]
            d = None if own is None else draw(_FINITE | _SIGNED_ZERO)
            cells.append((like(x), variant, draw(values), *(own or [None] * 4), d,
                          draw(st.none() | _ERROR)))
    return SweepResult(spec, list(zip(*cells)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(result=shared_cell_results())
def test_shared_cell_texts_never_leak_between_unequal_cells(result):
    assert render_json(result) == _json_by_cell(result)
    assert render_csv(result) == _csv_by_cell(result)
    # the parts of split_variants take their lines from the whole's, rendered
    # once per format, whichever format comes first
    twin = SweepResult(result.spec, result.columns)
    for whole, formats in ((result, "json csv"), (twin, "csv json")):
        for part in whole.split_variants():
            for fmt in formats.split():
                render, by_cell = {"csv": (render_csv, _csv_by_cell),
                                   "json": (render_json, _json_by_cell)}[fmt]
                assert render(part) == by_cell(part)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(result=emitted_results())
def test_emit_load_emit_is_byte_identical(tmp_path_factory, result):
    folder = tmp_path_factory.mktemp("round_trip")
    first = emit(result, "json", folder / "a.json")
    again = emit(load_result(first), "json", folder / "b.json")
    assert again.read_bytes() == first.read_bytes()


def test_negative_zero_survives_load_result(tmp_path):
    c = CoefficientSet(-0.0, 0.0, 1.0, -0.0, 0.0)
    result = from_rows(rate_spec(grid=(0.4,), variants=("with_D",)),
                       [SweepRow(0.4, "with_D", -0.0, c)])
    loaded = load_result(emit(result, "json", tmp_path / "z.json")).rows[0]
    assert [math.copysign(1.0, x) for x in (loaded.value, loaded.coeffs.a1,
                                            loaded.coeffs.b2)] == [-1.0] * 3


# --- load_result rejects what emit could not have written ----------------------

@pytest.fixture
def emitted_doc(tmp_path):
    """A four-row rate file as emit writes it, parsed, and a writer for a
    changed copy of it."""
    path = emit(run_sweep(rate_spec(grid=(0.4, 1.0))), "json", tmp_path / "ok.json")

    def write(doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    return json.loads(path.read_text()), write


def _set_cell(column, value, row=0):
    def change(doc):
        doc["rows"][row][column] = value
    return change


def _drop_cell(doc):
    del doc["rows"][2]["d"]


def _add_cell(doc):
    doc["rows"][0]["extra"] = None


def _keep_one_row(doc):
    doc["rows"] = doc["rows"][:1]


def _rows_as_object(doc):
    doc["rows"] = {}


def _swap_variants(doc):
    doc["rows"][0], doc["rows"][1] = doc["rows"][1], doc["rows"][0]


def _partial_coefficients(doc):
    doc["rows"][1]["a1"] = None


def _no_metadata(doc):
    del doc["metadata"]


@pytest.mark.parametrize("change, message", [
    (_set_cell("quantity", "abc"), "quantity must be a finite number or null, got 'abc'"),
    (_set_cell("quantity", math.nan), "quantity must be a finite number or null, got nan"),
    (_set_cell("a1", math.nan), "a1 must be a finite number or null, got nan"),
    (_set_cell("d", -math.inf, row=3), "row 3: d must be a finite number or null, got -inf"),
    (_set_cell("b2", True), "b2 must be a finite number or null, got True"),
    (_set_cell("variant", "with_d"), "row 0 is .* where the spec's grid x variants order"),
    (_set_cell("axis_value", 0.5), r"row 0 is \(0.5, 'with_D'\) where .* \(0.4, 'with_D'\)"),
    (_set_cell("axis_value", True, row=2), r"row 2 is \(True, 'with_D'\)"),
    (_set_cell("error_marker", 3), "error_marker must be a string or null, got 3.0"),
    (_keep_one_row, "1 rows, the spec gives 4"),
    (_rows_as_object, "a list of rows"),
    (_no_metadata, "metadata.spec"),
    (_drop_cell, "row 2 must hold exactly the keys axis_value, variant, quantity"),
    (_add_cell, "row 0 must hold exactly the keys"),
    (_swap_variants, r"row 0 is \(0.4, 'without_D'\)"),
    (_partial_coefficients, "row 1: a1, a2, b1, b2, d must be all null or all numbers"),
], ids=["quantity-abc", "value-nan", "a1-nan", "d-inf", "b2-bool", "unknown-variant",
        "axis-value-off-grid", "axis-value-bool", "error-marker-number", "one-row",
        "rows-object", "no-metadata", "missing-cell", "extra-cell", "variant-order",
        "partial-coefficients"])
def test_load_result_rejects_malformed_files(emitted_doc, change, message):
    doc, write = emitted_doc
    change(doc)
    with pytest.raises(DomainError, match=message):
        load_result(write(doc))


def test_load_result_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"metadata": ')
    with pytest.raises(DomainError, match="not JSON"):
        load_result(path)


def test_load_result_keeps_error_rows(tmp_path):
    spec = SweepSpec(axis="z_omega", grid=(0.4, 1e155),
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3}, quantity="rate")
    result = run_sweep(spec)
    assert result.columns.error[2:] == ("d must be > 0, got inf",) * 2
    path = emit(result, "json", tmp_path / "errors.json")
    assert load_result(path) == result
    assert render_json(load_result(path)) == path.read_text()
