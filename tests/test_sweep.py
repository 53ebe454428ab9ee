"""Sweep specs, deterministic execution, figure presets, and serialization."""

import pytest

import mirroratoms.sweep as sweep_mod
from mirroratoms import (DomainError, InvariantError, SweepResult, SweepSpec,
                         SystemParams, compute_coefficients, emit,
                         generation_rate, load_result, preset, run_sweep)
from mirroratoms.sweep import render_csv, render_json


def rate_spec(grid=(0.2, 0.4, 1.0), variants=("with_D", "without_D")):
    return SweepSpec(axis="z_omega", grid=grid,
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3},
                     quantity="rate", variants=variants)


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
                  fixed={"a_over_omega": 0.0, "l_omega": 0.3}, quantity="rate")
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
    calls = []
    real = sweep_mod.compute_coefficients

    def counted(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(sweep_mod, "compute_coefficients", counted)
    return calls


@pytest.mark.parametrize("quantity", ["rate", "cmax"])
def test_coefficients_computed_once_per_grid_point(monkeypatch, quantity):
    spec = SweepSpec(axis="z_omega", grid=(0.4, 1.0),
                     fixed={"a_over_omega": 1.0, "l_omega": 0.3}, quantity=quantity)
    calls = _count_coefficient_calls(monkeypatch)
    result = run_sweep(spec)
    assert len(calls) == len(spec.grid)
    assert len(result.rows) == 2 * len(spec.grid)
    assert all(r.error is None for r in result.rows)


def test_coefficient_failure_marks_every_variant(monkeypatch):
    calls = []

    def refused(params):
        calls.append(params)
        raise DomainError("forced coefficient failure")

    monkeypatch.setattr(sweep_mod, "compute_coefficients", refused)
    result = run_sweep(rate_spec(grid=(0.4,)))
    assert len(calls) == 1
    assert [(r.variant, r.value, r.coeffs, r.error) for r in result.rows] == [
        ("with_D", None, None, "forced coefficient failure"),
        ("without_D", None, None, "forced coefficient failure")]


def test_row_errors_are_local(monkeypatch):
    calls = {}

    def flaky(coeffs):
        if coeffs.d == 0.0:
            raise DomainError("forced failure")
        return generation_rate(coeffs)

    monkeypatch.setattr(sweep_mod, "generation_rate", flaky)
    result = run_sweep(rate_spec())
    calls = [(r.variant, r.error is None) for r in result.rows]
    assert calls == [("with_D", True), ("without_D", False)] * 3
    bad = result.rows[1]
    assert bad.value is None and bad.error == "forced failure"
    assert bad.coeffs is not None  # coefficients were computed before the failure


def test_tau_axis_sweep_evaluates_concurrence():
    spec = SweepSpec(axis="tau", grid=(0.0, 0.5, 1.0),
                     fixed={"z_omega": 0.4, "a_over_omega": 1.0, "l_omega": 0.3},
                     quantity="concurrence_t", variants=("with_D",))
    values = [r.value for r in run_sweep(spec).rows]
    assert values[0] == pytest.approx(0.0, abs=1e-14)
    assert values[1] > 0.0


def _per_stamp(spec):
    """The reference path: every tau stamp and variant evaluated on its own."""
    return SweepResult(spec=spec, rows=[row for g in spec.grid
                                        for row in sweep_mod._evaluate_point(spec, g)])


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
    result = SweepResult(spec=rate_spec(), rows=())
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
        emit(SweepResult(spec=rate_spec(), rows=()), "yaml", tmp_path / "x")


def test_json_carries_metadata(tmp_path):
    import json
    path = emit(run_sweep(rate_spec(grid=(0.4,))), "json", tmp_path / "m.json")
    doc = json.loads(path.read_text())
    assert doc["metadata"]["spec"]["axis"] == "z_omega"
    assert doc["metadata"]["units"]["rates"] == "gamma0"
    assert set(doc["rows"][0]) == {"axis_value", "variant", "quantity", "a1",
                                   "a2", "b1", "b2", "d", "error_marker"}
