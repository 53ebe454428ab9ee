"""Declarative parameter sweeps over the dimensionless knobs (omega*z,
a/omega, omega*L, tau) plus presets that regenerate the survey figures as
CSV/JSON data files.

Every sweep computes the coefficients once per grid point (once for a tau
sweep) and evaluates its quantity twice when both variants are requested:
once with the full coefficient set and once with the coherent interatomic
coupling d forced to zero (the "without interaction" curve).
Rows are deterministic: ordered by grid point, with_D before without_D, and
floats are serialized with 17 significant digits so emitted files are
byte-stable and round-trippable. A result is its columns: filled from array
kernels over the whole grid for rate, coefficients and cmax, by one
evolution per variant for tau, and by load_result from a checked file. The
rows of a grid point share their axis value and a1..b2 objects, and the
renderers format such shared cells once per point, for the two per-variant
files of a figure panel together.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress
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
        values = np.array(grid)
        if not np.isfinite(values).all():
            raise DomainError("grid values must be finite")
        if (values[1:] <= values[:-1]).any():  # rejects -0.0 after 0.0 too
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
    # for a part that split_variants cut from a whole: (whole, row mask, the
    # whole's texts per format, which the parts share)
    _whole: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        parts, texts = [], {}
        for variant in self.spec.variants:
            spec = copy.copy(self.spec)
            object.__setattr__(spec, "variants", (variant,))
            keep = [v == variant for v in self.columns.variant]
            part = SweepResult(spec, [compress(col, keep) for col in self.columns])
            object.__setattr__(part, "_whole", (self, keep, texts))
            parts.append(part)
        return parts


def _filled(out: np.ndarray, kernel, size: int) -> list:
    """Each point's error, or None, of `kernel` over index lists of the
    points 0..size-1, whose results it writes to out[..., points];
    `each_or_alone` halves a failing batch down to its failing points."""
    def fill(points):
        out[..., points] = kernel(points)
        return [None] * len(points)
    return each_or_alone(fill, list(range(size)))


def _masked(values: list, errors: list) -> list:
    """values with None where errors holds an error."""
    if not any(errors):
        return values
    return [None if e else x for x, e in zip(values, errors)]


def _interleaved(per_variant: list) -> list:
    """One column, grid point major, from one list per variant."""
    if len(per_variant) == 1:
        return per_variant[0]
    column = [None] * sum(map(len, per_variant))
    for j, cells in enumerate(per_variant):
        column[j::len(per_variant)] = cells
    return column


def _columns(spec: SweepSpec, values: dict, coefficients: list, ds: dict,
             errors: dict) -> Columns:
    """The columns of a sweep, grid point major, from one list per variant
    of the values, d and the errors (or Nones), and one list each of a1..b2,
    which every variant's row of a point shares; the rows of a point share
    its axis_value too."""
    variants = spec.variants
    return Columns(_interleaved([list(spec.grid)] * len(variants)),
                   _interleaved([[v] * len(spec.grid) for v in variants]),
                   _interleaved([values[v] for v in variants]),
                   *(_interleaved([column] * len(variants)) for column in coefficients),
                   _interleaved([ds[v] for v in variants]),
                   _interleaved([[None if e is None else str(e) for e in errors[v]]
                                 for v in variants]))


def _point_coefficients(spec: SweepSpec) -> tuple:
    """The coefficients (5, n) of every grid point of a rate, coefficients
    or cmax sweep from one `_coefficients` call (SweepSpec has checked what
    SystemParams would), NaN where they fail, and each point's error or None."""
    n, grid = len(spec.grid), np.array(spec.grid)

    def coefficients(points):
        dims = {**spec.fixed, spec.axis: grid[points]}
        return _coefficients(dims["a_over_omega"], dims["z_omega"], dims["l_omega"])

    table = np.full((5, n), np.nan)  # NaN where the coefficients fail
    return table, _filled(table, coefficients, n)


def _searched_sets(spec: SweepSpec, table: np.ndarray, failed: list) -> list:
    """The coefficient sets whose maxima a cmax sweep's rows report, grid
    point major, with d = 0 for without_D; none for another quantity or a
    point whose coefficients failed."""
    if spec.quantity != "cmax":
        return []
    with_d = [v == "with_D" for v in spec.variants]
    return [CoefficientSet(a1, a2, b1, b2, d if keep else 0.0)
            for (a1, a2, b1, b2, d), e in zip(table.T.tolist(), failed) if e is None
            for keep in with_d]


def _point_columns(spec: SweepSpec, table: np.ndarray, failed: list, maxima: list) -> Columns:
    """The columns of a rate, coefficients or cmax sweep from its
    `_point_coefficients`, with d = 0 for without_D: the rates from one
    `_generation_rate` call per variant, the maxima from `maxima`, the
    results of `_searched_sets` in order. A failure of the coefficients
    marks every variant's row of its point, one of the quantity its own row."""
    n, variants = len(spec.grid), spec.variants
    a1, a2, b1, b2, d = (_masked(column, failed) for column in table.tolist())
    ds = {"with_D": d, "without_D": _masked([0.0] * n, failed)}
    errors = {v: failed for v in variants}
    values = {v: [None] * n for v in variants}
    if spec.quantity == "rate":
        for v in variants:
            rate = np.empty(n)
            dv = table[4] if v == "with_D" else np.zeros(n)
            found = _filled(rate, lambda p: _generation_rate(*table[:3, p], dv[p]), n)
            errors[v] = [e or f for e, f in zip(failed, found)]
            values[v] = _masked(rate.tolist(), errors[v])
    elif spec.quantity == "cmax":
        for j, v in enumerate(variants):
            searched = iter(maxima[j::len(variants)])
            found = [e or next(searched) for e in failed]
            errors[v] = [f if isinstance(f, Exception) else None for f in found]
            values[v] = [None if e else f[1] for f, e in zip(found, errors[v])]
    return _columns(spec, values, [a1, a2, b1, b2], ds, errors)


def _tau_columns(spec: SweepSpec) -> Columns:
    """The columns of a tau sweep: the coefficients once, then one curve per
    variant, each stamp's value or error; a failure of the coefficients
    marks every row. Every row holds the same a1..b2 objects."""
    n, dims = len(spec.grid), spec.fixed
    try:
        full = _coefficients(dims["a_over_omega"], dims["z_omega"], dims["l_omega"])
    except NUMERICAL_ERRORS as exc:
        nothing = [None] * n
        return _columns(spec, dict.fromkeys(spec.variants, nothing), [nothing] * 4,
                        dict.fromkeys(spec.variants, nothing),
                        dict.fromkeys(spec.variants, [exc] * n))

    def curve(coeffs, stamps):
        return evolve_closed(prepare_initial("ten"), coeffs, stamps).concurrence.tolist()

    ds = {v: full[4] if v == "with_D" else 0.0 for v in spec.variants}
    found = {v: each_or_alone(partial(curve, CoefficientSet(*full[:4], d)), spec.grid)
             for v, d in ds.items()}
    errors = {v: [f if isinstance(f, Exception) else None for f in found[v]] for v in found}
    values = {v: [None if e else f for f, e in zip(found[v], errors[v])] for v in found}
    return _columns(spec, values, [[x] * n for x in full[:4]],
                    {v: [d] * n for v, d in ds.items()}, errors)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep, grid point major and with_D first.

    Failures stay local: a row that raises a domain/convergence error gets an
    error marker and the rest of the grid is still evaluated.
    """
    return run_sweeps([spec])[0]


def run_sweeps(specs) -> list:
    """`run_sweep` of each spec, in order, with the maxima of every cmax row
    of them all from one `max_concurrences` call: a figure's panels share one
    search, and each row still gets the result of its own."""
    points = [None if spec.axis == "tau" else _point_coefficients(spec) for spec in specs]
    sets = [[] if point is None else _searched_sets(spec, *point)
            for spec, point in zip(specs, points)]
    searched = [s for part in sets for s in part]
    maxima = iter(max_concurrences(searched) if searched else [])
    return [SweepResult(spec, _tau_columns(spec) if point is None else
                        _point_columns(spec, *point, [next(maxima) for _ in part]))
            for spec, point, part in zip(specs, points, sets)]


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


def _csv_cell(cell: str) -> str:
    """A cell holding a comma, a quote or a newline, quoted."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


_jstr = json.dumps  # a string as JSON


def _jnum(x) -> str:
    return "null" if x is None else _fnum(x)


class _Format:
    """How a format writes a row. `cells` takes the texts of the axis value,
    the variant, the value, a1..b2 together, d and the error marker;
    `block` takes those of a1..b2. `row` and `numbers` are the same
    templates with the numbers formatted in: `row` for a complete row (a
    value and d, no error marker, a variant that needs no quoting) from the
    axis text, the variant, the value, the a1..b2 text and d, `row_d` the
    same with the text of d; `numbers` for a1..b2 when all four are
    numbers."""

    def __init__(self, cells: str, block: str, null: str, text, no_error: str):
        self.cells, self.block, self.null = cells, block, null
        self.text, self.no_error = text, no_error
        self.row = cells % ("%s", text("%s"), "%.17g", "%s", "%.17g", no_error)
        self.row_d = cells % ("%s", text("%s"), "%.17g", "%s", "%s", no_error)
        self.numbers = block % (("%.17g",) * 4)

    def number(self, x) -> str:
        return self.null if x is None else _fnum(x)


_JSON_KEYS = [f'"{col}": %s' for col in CSV_COLUMNS]
_CSV = _Format(",".join(["%s"] * 6), ",".join(["%s"] * 4), "", _csv_cell, "")
_JSON = _Format("    {" + ", ".join([*_JSON_KEYS[:3], "%s", *_JSON_KEYS[7:]]) + "}",
                ", ".join(_JSON_KEYS[3:7]), "null", _jstr, "null")


_UNSEEN = object()  # what no cell holds


def _row_lines(result: SweepResult, grid_texts: list, form: _Format) -> list:
    """One line per row of the result. Rows in a row that hold the same
    axis_value object share its text, and those that hold the same a1..b2
    objects share one text of all four: a grid point's rows from run_sweep
    format them once. An axis_value that is the grid's next value takes its
    text from grid_texts. A row that holds the d object of the row two
    before, as rows of a tau sweep and without_D rows do where the variants
    alternate, takes the text of d made once for that object."""
    grid, k, size = result.spec.grid, 0, len(result.spec.grid)
    row, row_d, numbers, lines = form.row, form.row_d, form.numbers, []
    back, other = [_UNSEEN, None], [_UNSEEN, None]  # a d and its text, or None
    x_seen = a1_seen = a2_seen = b1_seen = b2_seen = _UNSEEN
    for x, variant, value, a1, a2, b1, b2, d, error in zip(*result.columns):
        if x is not x_seen:
            x_seen = x
            if k < size and x is grid[k]:
                x_text, k = grid_texts[k], k + 1
            else:
                x_text = _fnum(x)
        if a1 is not a1_seen or a2 is not a2_seen or b1 is not b1_seen or b2 is not b2_seen:
            a1_seen, a2_seen, b1_seen, b2_seen = block = a1, a2, b1, b2
            a_text = (form.block % tuple(map(form.number, block)) if None in block
                      else numbers % block)
        if error is None and value is not None and d is not None and variant in VARIANTS:
            if d is back[0]:
                if back[1] is None:
                    back[1] = _fnum(d)
                lines.append(row_d % (x_text, variant, value, a_text, back[1]))
            else:  # formatted into the row, which costs least for a d no row repeats
                back[0], back[1] = d, None
                lines.append(row % (x_text, variant, value, a_text, d))
            back, other = other, back
        else:
            lines.append(form.cells % (
                x_text, form.text(variant), form.number(value), a_text, form.number(d),
                form.no_error if error is None else form.text(error)))
    return lines


def _texts(result: SweepResult, form: _Format) -> tuple:
    """The texts of the result's grid values, and its row lines. A result
    split_variants cut from a whole takes its lines from the whole's,
    which are formatted once for all its parts."""
    if result._whole is not None:
        whole, keep, texts = result._whole
        if form not in texts:
            texts[form] = _texts(whole, form)
        grid_texts, lines = texts[form]
        return grid_texts, list(compress(lines, keep))
    grid = result.spec.grid
    grid_texts = ("\n".join(["%.17g"] * len(grid)) % grid).split("\n")
    return grid_texts, _row_lines(result, grid_texts, form)


def render_csv(result: SweepResult) -> str:
    return "\n".join([",".join(CSV_COLUMNS), *_texts(result, _CSV)[1]]) + "\n"


def render_json(result: SweepResult) -> str:
    """Deterministic JSON with a metadata header; floats carry 17 significant
    digits so emit -> parse -> emit is byte-identical."""
    spec = result.spec.to_dict()
    grid_texts, lines = _texts(result, _JSON)
    fixed = ", ".join(f"{_jstr(k)}: {_jnum(v)}" for k, v in spec["fixed"].items())
    variants = ", ".join(_jstr(v) for v in spec["variants"])
    units = ", ".join(f"{_jstr(k)}: {_jstr(v)}" for k, v in sorted(_UNITS.items()))
    out = [
        "{",
        '  "metadata": {',
        f'    "spec": {{"axis": {_jstr(spec["axis"])}, "grid": [{", ".join(grid_texts)}], '
        f'"fixed": {{{fixed}}}, "quantity": {_jstr(spec["quantity"])}, '
        f'"variants": [{variants}]}},',
        f'    "version": {_jstr(__version__)},',
        f'    "units": {{{units}}}',
        "  },",
        '  "rows": [',
        ",\n".join(lines),
        "  ]",
        "}",
    ]
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
