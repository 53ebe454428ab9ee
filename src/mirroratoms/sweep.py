"""Declarative parameter sweeps over the dimensionless knobs (omega*z,
a/omega, omega*L, tau) plus presets that regenerate the survey figures as
CSV/JSON data files.

Every sweep computes the coefficients once per grid point (once for a tau
sweep) and evaluates its quantity twice when both variants are requested:
once with the full coefficient set and once with the coherent interatomic
coupling d forced to zero (the "without interaction" curve).
Rows are deterministic: ordered by grid point, with_D before without_D, and
floats are serialized with 17 significant digits so emitted files are
byte-stable and round-trippable. A result is its columns, filled from plain
floats: by one loop over the grid for rate, coefficients and cmax, by one
evolution per variant for tau, and by load_result from a checked file.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .concurrence import _generation_rate, max_concurrences
from .correlations import (CoefficientSet, SystemParams, _coefficients,
                           compute_coefficients)
from .errors import NUMERICAL_ERRORS, DomainError, each_or_alone
from .evolution import (default_time_grid, evolve_closed, prepare_initial,
                        tau_horizon)

AXES = ("z_omega", "a_over_omega", "l_omega", "tau")
QUANTITIES = ("rate", "cmax", "concurrence_t", "coefficients")
VARIANTS = ("with_D", "without_D")
_DIM_KEYS = ("z_omega", "a_over_omega", "l_omega")

_UNITS = {"rates": "gamma0", "times": "1/gamma0", "lengths": "1/omega"}

CSV_COLUMNS = ("axis_value", "variant", "quantity",
               "a1", "a2", "b1", "b2", "d", "error_marker")

# the columns of a SweepResult, in the order of CSV_COLUMNS; a1..d are None
# in a row without coefficients
Columns = namedtuple("Columns", ("axis_value", "variant", "value",
                                 "a1", "a2", "b1", "b2", "d", "error"))


def _admissible(key: str, x: float) -> bool:
    """Whether x lies in the domain of the dimensionless knob `key`: finite
    and > 0, or >= 0 for tau and for a/omega (0 is the inertial limit)."""
    return math.isfinite(x) and (x >= 0.0 if key in ("tau", "a_over_omega") else x > 0.0)


def _number(x) -> float:
    """An int or a float (np.float64 is one) as a float; TypeError otherwise, bools included."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


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
            grid = tuple(map(_number, self.grid))
            fixed = {str(k): _number(v) for k, v in dict(self.fixed).items()}
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
        if not _admissible(self.axis, grid[0]):
            raise DomainError(f"grid values out of range for axis {self.axis}")
        object.__setattr__(self, "grid", grid)

        needed = set(_DIM_KEYS) if self.axis == "tau" else set(_DIM_KEYS) - {self.axis}
        if set(fixed) != needed:
            raise DomainError(f"fixed must supply exactly {sorted(needed)}, got {sorted(fixed)}")
        if not all(_admissible(k, v) for k, v in fixed.items()):
            raise DomainError("fixed parameters must be finite and positive "
                              "(a_over_omega may be 0)")
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
    """The rows of a sweep, stored as columns: row i is
    `tuple(col[i] for col in columns)`, in the order of `Columns`. `rows`
    is a view of the columns as SweepRows, built on first use."""

    spec: SweepSpec
    columns: Columns

    def __post_init__(self):
        object.__setattr__(self, "columns", Columns(*map(tuple, self.columns)))

    @cached_property
    def rows(self) -> tuple:
        return tuple(SweepRow(x, variant, value,
                              None if a1 is None else CoefficientSet(a1, a2, b1, b2, d), error)
                     for x, variant, value, a1, a2, b1, b2, d, error in zip(*self.columns))

    def split_variants(self) -> list:
        """One result per variant of the spec, in its order, with the rows of
        that variant and the spec restricted to it (a copy: the grid was
        validated once)."""
        parts = []
        for variant in self.spec.variants:
            spec = copy.copy(self.spec)
            object.__setattr__(spec, "variants", (variant,))
            keep = [v == variant for v in self.columns.variant]
            parts.append(SweepResult(spec, [compress(col, keep) for col in self.columns]))
        return parts


def _row(g: float, variant: str, coeffs: tuple, found, value=None) -> tuple:
    """The row of (g, variant) with `coeffs` (or five Nones): if `found` is
    an error, no value and its marker, else value(found), or `found` itself."""
    if isinstance(found, Exception):
        return (g, variant, None, *coeffs, str(found))
    return (g, variant, found if value is None else value(found), *coeffs, None)


def _point_rows(spec: SweepSpec) -> list:
    """The rows of a rate, coefficients or cmax sweep from plain floats: the
    coefficients once per grid point (SweepSpec has checked what SystemParams
    would), then the quantity per variant, with d = 0 for without_D; the
    maxima of a cmax sweep come from one max_concurrences call. A failure of
    the coefficients marks every variant's row, one of the quantity its own."""
    dims = dict(spec.fixed)
    rate, cmax = spec.quantity == "rate", spec.quantity == "cmax"
    rows, searched = [], []
    for g in spec.grid:
        dims[spec.axis] = g
        try:
            a1, a2, b1, b2, d = _coefficients(1.0, dims["a_over_omega"],
                                              dims["z_omega"], dims["l_omega"])
        except NUMERICAL_ERRORS as exc:
            rows.extend(_row(g, v, (None,) * 5, exc) for v in spec.variants)
            continue
        for variant in spec.variants:
            dv = d if variant == "with_D" else 0.0
            value = error = None
            if cmax:
                searched.append(len(rows))
            elif rate:
                try:
                    value = _generation_rate(a1, a2, b1, dv)
                except NUMERICAL_ERRORS as exc:
                    error = str(exc)
            rows.append((g, variant, value, a1, a2, b1, b2, dv, error))
    if searched:
        maxima = max_concurrences(CoefficientSet(*rows[i][3:8]) for i in searched)
        for i, found in zip(searched, maxima):
            rows[i] = _row(*rows[i][:2], rows[i][3:8], found, itemgetter(1))
    return rows


def _tau_rows(spec: SweepSpec) -> list:
    """Rows of a tau sweep: the coefficients once, then one curve per
    variant; a failure of the coefficients marks every row."""
    dims = spec.fixed
    try:
        full = _coefficients(1.0, dims["a_over_omega"], dims["z_omega"], dims["l_omega"])
    except NUMERICAL_ERRORS as exc:
        return [_row(g, v, (None,) * 5, exc) for g in spec.grid for v in spec.variants]

    def curve(coeffs, stamps):
        return evolve_closed(prepare_initial("ten"), coeffs, stamps).concurrence.tolist()

    coeffs = {v: (*full[:4], full[4] if v == "with_D" else 0.0) for v in spec.variants}
    found = {v: each_or_alone(partial(curve, CoefficientSet(*c)), spec.grid)
             for v, c in coeffs.items()}
    return [_row(g, v, c, found[v][i]) for i, g in enumerate(spec.grid) for v, c in coeffs.items()]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep, grid point major and with_D first.

    Failures stay local: a row that raises a domain/convergence error gets an
    error marker and the rest of the grid is still evaluated.
    """
    rows = _tau_rows(spec) if spec.axis == "tau" else _point_rows(spec)
    return SweepResult(spec, zip(*rows))


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


# figure: (axis, grid kind or None for the tau grid, quantity, fixed per panel)
_PRESETS = {
    2: ("z_omega", _Z_WIDE, "rate",
        [dict(l_omega=0.3, a_over_omega=a) for a in (0.1, 1.0)]),
    3: ("a_over_omega", _A_LIN, "rate",
        [dict(z_omega=z, l_omega=l) for z in (0.4, 20.0, 4000.0) for l in (0.3, 3.0, 30.0)]),
    4: ("l_omega", _L_LIN, "rate",
        [dict(a_over_omega=a, z_omega=z) for a in (0.1, 1.0) for z in (0.5, 10.0, 1000.0)]),
    5: ("tau", None, "concurrence_t",
        [dict(l_omega=0.5, z_omega=z, a_over_omega=a) for z in (0.4, 20.0) for a in (0.1, 2.7)]),
    6: ("tau", None, "concurrence_t",
        [dict(l_omega=1.9, z_omega=z, a_over_omega=a) for z in (0.4, 2.0, 20.0)
         for a in (0.5, 1.3)]),
    7: ("z_omega", _Z_NEAR, "cmax",
        [dict(l_omega=0.4, a_over_omega=a) for a in (0.1, 1.0)]),
    8: ("z_omega", _Z_NEAR, "cmax",
        [dict(l_omega=l, a_over_omega=a) for l in (4.0, 9.0) for a in (0.1, 0.5)]),
    9: ("a_over_omega", _A_LIN, "cmax",
        [dict(l_omega=l, z_omega=z) for l in (0.3, 3.0, 30.0) for z in (0.4, 20.0, 4000.0)]),
    10: ("l_omega", _L_LIN, "cmax",
         [dict(a_over_omega=a, z_omega=z) for a in (0.1, 1.0) for z in (0.5, 10.0, 1000.0)]),
}


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
    axis, kind, quantity, panels = _PRESETS[figure]
    grid = None if kind is None else _axis_grid(kind, points)
    return [SweepSpec(axis=axis, grid=_tau_grid(fixed) if grid is None else grid,
                      fixed=fixed, quantity=quantity) for fixed in panels]


# ---------------------------------------------------------------------------
# serialization (17 significant digits, byte-stable)

def _fnum(x) -> str:
    return "%.17g" % x  # format(float(x), ".17g") for every int and float x


def _lines(result: SweepResult, template: str, line_of) -> list:
    """One line per row of the result: a complete row (a value,
    coefficients, no error and a variant that needs no quoting) through
    `template` from its first eight values, any other through `line_of`."""
    return [template % row[:8] if (row[8] is None and row[2] is not None
                                   and row[3] is not None and row[1] in VARIANTS)
            else line_of(row) for row in zip(*result.columns)]


# a complete row has a float in every column but the variant, and no error
_COMPLETE_CELL = {"variant": "%s", "error_marker": ""}
_CSV_ROW = ",".join(_COMPLETE_CELL.get(col, "%.17g") for col in CSV_COLUMNS)


def _csv_line(row: tuple) -> str:
    """A row cell by cell; a cell holding a comma, a quote or a newline is quoted."""
    axis_value, variant, *numbers, error = row
    cells = [_fnum(axis_value), variant,
             *("" if x is None else _fnum(x) for x in numbers), error or ""]
    return ",".join('"' + cell.replace('"', '""') + '"'
                    if ("," in cell or '"' in cell or "\n" in cell) else cell for cell in cells)


def render_csv(result: SweepResult) -> str:
    return "\n".join([",".join(CSV_COLUMNS), *_lines(result, _CSV_ROW, _csv_line)]) + "\n"


_jstr = json.dumps  # a string as JSON


def _jnum(x) -> str:
    return "null" if x is None else _fnum(x)


_JSON_CELLS = "    {" + ", ".join(f'"{col}": %s' for col in CSV_COLUMNS) + "}"
_JSON_ROW = _JSON_CELLS % ("%.17g", '"%s"', *["%.17g"] * 6, "null")


def _json_line(row: tuple) -> str:
    axis_value, variant, *numbers, error = row
    return _JSON_CELLS % (_fnum(axis_value), _jstr(variant), *map(_jnum, numbers),
                          "null" if error is None else _jstr(error))


def render_json(result: SweepResult) -> str:
    """Deterministic JSON with a metadata header; floats carry 17 significant
    digits so emit -> parse -> emit is byte-identical."""
    spec = result.spec.to_dict()
    fixed = ", ".join(f"{_jstr(k)}: {_jnum(v)}" for k, v in spec["fixed"].items())
    grid = ", ".join(map(_fnum, spec["grid"]))
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
    out.append(",\n".join(_lines(result, _JSON_ROW, _json_line)))
    out.extend(["  ]", "}"])
    return "\n".join(out) + "\n"


def emit(result: SweepResult, format: str, path=None) -> Path | None:
    """Write the result as CSV or JSON to `path`, or to stdout when `path` is
    None; returns the path written."""
    if format not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    text = render_csv(result) if format == "csv" else render_json(result)
    if path is None:
        sys.stdout.write(text)
        return None
    path = Path(path)
    path.write_text(text)
    return path


def load_result(path) -> SweepResult:
    """Parse a JSON file produced by emit back into a SweepResult. Every number
    is read as a float: emit writes -0.0 as "-0", which json would read as 0.
    DomainError on what emit cannot write: rows out of the spec's grid x
    variants order or without the keys of CSV_COLUMNS, a number that is not
    finite, coefficients partly null, an error marker that is not a string."""
    try:
        doc = json.loads(Path(path).read_text(), parse_int=float)
    except json.JSONDecodeError as exc:
        raise DomainError(f"result file is not JSON: {exc}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("metadata"), dict)
            and "spec" in doc["metadata"] and isinstance(doc.get("rows"), list)):
        raise DomainError("a result file holds metadata.spec and a list of rows")
    spec, rows = SweepSpec.from_dict(doc["metadata"]["spec"]), doc["rows"]
    order = [(g, v) for g in spec.grid for v in spec.variants]
    if len(rows) != len(order):
        raise DomainError(f"{len(rows)} rows, the spec gives {len(order)}")
    cells = []
    for i, (row, (g, variant)) in enumerate(zip(rows, order)):
        if not isinstance(row, dict) or sorted(row) != sorted(CSV_COLUMNS):
            raise DomainError(f"row {i} must hold exactly the keys {', '.join(CSV_COLUMNS)}")
        x, v, *numbers, error = cell = tuple(row[col] for col in CSV_COLUMNS)
        if not isinstance(x, float) or x != g or v != variant:
            raise DomainError(f"row {i} is ({x!r}, {v!r}) where the spec's grid x "
                              f"variants order puts ({g!r}, {variant!r})")
        for col, n in zip(CSV_COLUMNS[2:8], numbers):
            if n is not None and not (isinstance(n, float) and math.isfinite(n)):
                raise DomainError(f"row {i}: {col} must be a finite number or null, got {n!r}")
        if None in numbers[1:] and numbers[1:].count(None) != 5:
            raise DomainError(f"row {i}: a1, a2, b1, b2, d must be all null or all numbers")
        if not (error is None or isinstance(error, str)):
            raise DomainError(f"row {i}: error_marker must be a string or null, got {error!r}")
        cells.append(cell)
    return SweepResult(spec, zip(*cells))
