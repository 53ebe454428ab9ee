"""Declarative parameter sweeps over the dimensionless knobs (omega*z,
a/omega, omega*L, tau) plus presets that regenerate the survey figures as
CSV/JSON data files.

Every sweep computes the coefficients once per grid point and evaluates its
quantity twice when both variants are requested: once with the full
coefficient set and once with the coherent interatomic coupling d forced to
zero (the "without interaction" curve).
Rows are deterministic: ordered by grid point, with_D before without_D, and
floats are serialized with 17 significant digits so emitted files are
byte-stable and round-trippable.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .concurrence import generation_rate, max_concurrence
from .correlations import CoefficientSet, SystemParams, compute_coefficients
from .errors import NUMERICAL_ERRORS, DomainError
from .evolution import (default_time_grid, evolve_closed, prepare_initial,
                        tau_horizon)

AXES = ("z_omega", "a_over_omega", "l_omega", "tau")
QUANTITIES = ("rate", "cmax", "concurrence_t", "coefficients")
VARIANTS = ("with_D", "without_D")
_DIM_KEYS = ("z_omega", "a_over_omega", "l_omega")

_UNITS = {"rates": "gamma0", "times": "1/gamma0", "lengths": "1/omega"}

CSV_COLUMNS = ("axis_value", "variant", "quantity",
               "a1", "a2", "b1", "b2", "d", "error_marker")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis with its grid, the remaining fixed dimensionless
    parameters, the quantity to evaluate, and the coupling variants."""

    axis: str
    grid: tuple
    fixed: dict
    quantity: str
    variants: tuple = VARIANTS

    def __post_init__(self):
        if self.axis not in AXES:
            raise DomainError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.quantity not in QUANTITIES:
            raise DomainError(f"quantity must be one of {QUANTITIES}, got {self.quantity!r}")
        if (self.quantity == "concurrence_t") != (self.axis == "tau"):
            raise DomainError("quantity 'concurrence_t' goes with axis 'tau' and only with it")

        try:
            grid = tuple(float(g) for g in self.grid)
            fixed = {str(k): float(v) for k, v in dict(self.fixed).items()}
            variants = tuple(dict.fromkeys(self.variants))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError("grid and fixed must hold numbers, variants names: "
                              f"{exc}") from None
        if not grid:
            raise DomainError("grid must be nonempty")
        if not all(math.isfinite(g) for g in grid):
            raise DomainError("grid values must be finite")
        if any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
            raise DomainError("grid must be strictly increasing")
        low = 0.0 if self.axis == "tau" else None
        if (low is not None and grid[0] < low) or (low is None and grid[0] <= 0.0):
            raise DomainError(f"grid values out of range for axis {self.axis}")
        object.__setattr__(self, "grid", grid)

        needed = set(_DIM_KEYS) if self.axis == "tau" else set(_DIM_KEYS) - {self.axis}
        if set(fixed) != needed:
            raise DomainError(f"fixed must supply exactly {sorted(needed)}, got {sorted(fixed)}")
        if any(v <= 0.0 or not math.isfinite(v) for v in fixed.values()):
            raise DomainError("fixed parameters must be finite and positive")
        object.__setattr__(self, "fixed", fixed)

        if not variants or any(v not in VARIANTS for v in variants):
            raise DomainError(f"variants must be a nonempty subset of {VARIANTS}")
        # deterministic ordering: with_D first
        variants = tuple(v for v in VARIANTS if v in variants)
        object.__setattr__(self, "variants", variants)

    def to_dict(self) -> dict:
        return {"axis": self.axis, "grid": list(self.grid),
                "fixed": dict(sorted(self.fixed.items())),
                "quantity": self.quantity, "variants": list(self.variants)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise DomainError("sweep config must be a JSON object")
        unknown = set(doc) - {"axis", "grid", "fixed", "quantity", "variants"}
        if unknown:
            raise DomainError(f"unknown sweep config keys: {sorted(unknown)}")
        for key in ("axis", "grid", "fixed", "quantity"):
            if key not in doc:
                raise DomainError(f"sweep config missing key {key!r}")
        return cls(axis=doc["axis"], grid=doc["grid"], fixed=doc["fixed"],
                   quantity=doc["quantity"], variants=doc.get("variants", VARIANTS))


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, variant) evaluation; `error` marks a failed row."""

    axis_value: float
    variant: str
    value: float | None
    coeffs: CoefficientSet | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


def _params_at(spec: SweepSpec, axis_value: float) -> SystemParams:
    dims = dict(spec.fixed)
    if spec.axis != "tau":
        dims[spec.axis] = axis_value
    return SystemParams.from_dimensionless(**dims)


def _evaluate_point(spec: SweepSpec, axis_value: float) -> list:
    """The rows of one grid point: the coefficients once, then the quantity
    per variant. A failure of the coefficients marks every variant's row."""
    try:
        params = _params_at(spec, axis_value)
        full = compute_coefficients(params)
    except NUMERICAL_ERRORS as exc:
        return [SweepRow(axis_value, v, None, None, error=str(exc)) for v in spec.variants]
    rows = []
    for variant in spec.variants:
        coeffs = full.without_d() if variant == "without_D" else full
        try:
            if spec.quantity == "coefficients":
                value = None
            elif spec.quantity == "rate":
                value = generation_rate(coeffs).rate
            elif spec.quantity == "cmax":
                value = max_concurrence(params, coeffs=coeffs)[1]
            else:  # concurrence_t at tau = axis_value
                value = float(evolve_closed(prepare_initial("ten"), coeffs,
                                            [axis_value]).concurrence[0])
            rows.append(SweepRow(axis_value, variant, value, coeffs))
        except NUMERICAL_ERRORS as exc:
            rows.append(SweepRow(axis_value, variant, None, coeffs, error=str(exc)))
    return rows


def _tau_rows(spec: SweepSpec) -> list:
    """Rows of a tau sweep from one evolve_closed call per variant over the
    whole grid, byte-identical to evaluating each stamp on its own. If that
    raises, the grid is evaluated stamp by stamp so that only the failing
    stamps carry an error marker."""
    try:
        coeffs = compute_coefficients(_params_at(spec, spec.grid[0]))
        curves = []
        for variant in spec.variants:
            c = coeffs.without_d() if variant == "without_D" else coeffs
            curves.append((variant, c, evolve_closed(prepare_initial("ten"), c,
                                                     spec.grid).concurrence))
    except NUMERICAL_ERRORS:
        return _pointwise(spec)
    return [SweepRow(g, variant, float(conc[i]), c)
            for i, g in enumerate(spec.grid) for variant, c, conc in curves]


def _pointwise(spec: SweepSpec) -> list:
    return [row for g in spec.grid for row in _evaluate_point(spec, g)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep, grid point major and with_D first.

    Failures stay local: a row that raises a domain/convergence error gets an
    error marker and the rest of the grid is still evaluated.
    """
    rows = _tau_rows(spec) if spec.axis == "tau" else _pointwise(spec)
    return SweepResult(spec=spec, rows=rows)


# ---------------------------------------------------------------------------
# figure presets

_Z_WIDE = ("log", 1e-2, 4e3)     # settling at large omega*z needs the decades
_Z_NEAR = ("log", 1e-2, 1e2)
_A_LIN = ("lin", 0.02, 3.0)
_L_LIN = ("lin", 0.05, 12.0)


def _axis_grid(kind, points):
    style, lo, hi = kind
    if style == "log":
        return tuple(np.geomspace(lo, hi, points))
    return tuple(np.linspace(lo, hi, points))


def _tau_grid(fixed: dict) -> tuple:
    coeffs = compute_coefficients(SystemParams.from_dimensionless(**fixed))
    return tuple(default_time_grid(coeffs, tau_horizon(coeffs)))


def preset(figure: int, points: int = 400) -> list:
    """Built-in sweeps 2..10 covering the standard survey of the model:
    generation rate vs boundary distance / acceleration / separation (2-4),
    concurrence time series (5-6), and maximum concurrence vs the same three
    knobs (7-10), each over a fixed menu of parameter combinations.

    Axis ranges and grid densities are package defaults: log-spaced for the
    boundary-distance axis, linear otherwise, `points` samples per axis;
    time grids ignore `points` and follow the oscillation-resolving default.
    """
    if figure not in range(2, 11):
        raise DomainError(f"figure must be in 2..10, got {figure}")

    def spec(axis, kind, **fixed):
        return SweepSpec(axis=axis, grid=_axis_grid(kind, points), fixed=fixed,
                         quantity=_PRESET_QUANTITY[figure])

    out = []
    if figure == 2:
        for a in (0.1, 1.0):
            out.append(spec("z_omega", _Z_WIDE, l_omega=0.3, a_over_omega=a))
    elif figure == 3:
        for z in (0.4, 20.0, 4000.0):
            for l in (0.3, 3.0, 30.0):
                out.append(spec("a_over_omega", _A_LIN, z_omega=z, l_omega=l))
    elif figure == 4:
        for a in (0.1, 1.0):
            for z in (0.5, 10.0, 1000.0):
                out.append(spec("l_omega", _L_LIN, a_over_omega=a, z_omega=z))
    elif figure == 5:
        for z in (0.4, 20.0):
            for a in (0.1, 2.7):
                fixed = {"l_omega": 0.5, "z_omega": z, "a_over_omega": a}
                out.append(SweepSpec(axis="tau", grid=_tau_grid(fixed), fixed=fixed,
                                     quantity="concurrence_t"))
    elif figure == 6:
        for z in (0.4, 2.0, 20.0):
            for a in (0.5, 1.3):
                fixed = {"l_omega": 1.9, "z_omega": z, "a_over_omega": a}
                out.append(SweepSpec(axis="tau", grid=_tau_grid(fixed), fixed=fixed,
                                     quantity="concurrence_t"))
    elif figure == 7:
        for a in (0.1, 1.0):
            out.append(spec("z_omega", _Z_NEAR, l_omega=0.4, a_over_omega=a))
    elif figure == 8:
        for l in (4.0, 9.0):
            for a in (0.1, 0.5):
                out.append(spec("z_omega", _Z_NEAR, l_omega=l, a_over_omega=a))
    elif figure == 9:
        for l in (0.3, 3.0, 30.0):
            for z in (0.4, 20.0, 4000.0):
                out.append(spec("a_over_omega", _A_LIN, l_omega=l, z_omega=z))
    else:  # figure == 10
        for a in (0.1, 1.0):
            for z in (0.5, 10.0, 1000.0):
                out.append(spec("l_omega", _L_LIN, a_over_omega=a, z_omega=z))
    return out


_PRESET_QUANTITY = {2: "rate", 3: "rate", 4: "rate", 5: "concurrence_t",
                    6: "concurrence_t", 7: "cmax", 8: "cmax", 9: "cmax",
                    10: "cmax"}


# ---------------------------------------------------------------------------
# serialization (17 significant digits, byte-stable)

def _fnum(x) -> str:
    return format(float(x), ".17g")


def _row_cells(row: SweepRow) -> list:
    c = row.coeffs
    return [
        _fnum(row.axis_value),
        row.variant,
        "" if row.value is None else _fnum(row.value),
        "" if c is None else _fnum(c.a1),
        "" if c is None else _fnum(c.a2),
        "" if c is None else _fnum(c.b1),
        "" if c is None else _fnum(c.b2),
        "" if c is None else _fnum(c.d),
        row.error or "",
    ]


def render_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        cells = _row_cells(row)
        if any("," in cell or '"' in cell or "\n" in cell for cell in cells):
            cells = ['"' + cell.replace('"', '""') + '"' if
                     ("," in cell or '"' in cell or "\n" in cell) else cell
                     for cell in cells]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _jstr(s) -> str:
    return json.dumps(s)


def _jnum(x) -> str:
    return "null" if x is None else _fnum(x)


def render_json(result: SweepResult) -> str:
    """Deterministic JSON with a metadata header; floats carry 17 significant
    digits so emit -> parse -> emit is byte-identical."""
    spec = result.spec.to_dict()
    fixed = ", ".join(f"{_jstr(k)}: {_jnum(v)}" for k, v in spec["fixed"].items())
    grid = ", ".join(_jnum(g) for g in spec["grid"])
    variants = ", ".join(_jstr(v) for v in spec["variants"])
    units = ", ".join(f"{_jstr(k)}: {_jstr(v)}" for k, v in sorted(_UNITS.items()))
    out = [
        "{",
        '  "metadata": {',
        f'    "spec": {{"axis": {_jstr(spec["axis"])}, "grid": [{grid}], '
        f'"fixed": {{{fixed}}}, "quantity": {_jstr(spec["quantity"])}, '
        f'"variants": [{variants}]}},',
        f'    "version": {_jstr(__version__)},',
        f'    "units": {{{units}}}',
        "  },",
        '  "rows": [',
    ]
    body = []
    for row in result.rows:
        c = row.coeffs
        body.append(
            '    {"axis_value": %s, "variant": %s, "quantity": %s, '
            '"a1": %s, "a2": %s, "b1": %s, "b2": %s, "d": %s, "error_marker": %s}'
            % (_fnum(row.axis_value), _jstr(row.variant), _jnum(row.value),
               _jnum(None if c is None else c.a1), _jnum(None if c is None else c.a2),
               _jnum(None if c is None else c.b1), _jnum(None if c is None else c.b2),
               _jnum(None if c is None else c.d),
               "null" if row.error is None else _jstr(row.error)))
    out.append(",\n".join(body))
    out.extend(["  ]", "}"])
    return "\n".join(out) + "\n"


def emit(result: SweepResult, format: str, path=None) -> Path | None:
    """Write the result as CSV or JSON to `path`, or to stdout when `path` is
    None; returns the path written."""
    if format == "csv":
        text = render_csv(result)
    elif format == "json":
        text = render_json(result)
    else:
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    if path is None:
        sys.stdout.write(text)
        return None
    path = Path(path)
    path.write_text(text)
    return path


def load_result(path) -> SweepResult:
    """Parse a JSON file produced by emit back into a SweepResult."""
    doc = json.loads(Path(path).read_text())
    spec = SweepSpec.from_dict(doc["metadata"]["spec"])
    rows = []
    for r in doc["rows"]:
        coeffs = None
        if r["a1"] is not None:
            coeffs = CoefficientSet(a1=r["a1"], a2=r["a2"], b1=r["b1"],
                                    b2=r["b2"], d=r["d"])
        rows.append(SweepRow(axis_value=r["axis_value"], variant=r["variant"],
                             value=r["quantity"], coeffs=coeffs,
                             error=r["error_marker"]))
    return SweepResult(spec=spec, rows=rows)
