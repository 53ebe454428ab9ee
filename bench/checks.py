"""Output checks, run after every timed pass and outside its timed region.

The first completed copy of an invocation's outputs is checked in full:
row counts against the specs, the fixed CSV columns, JSON round trips
through `load_result` -> `render_json`, and values of cmax/concurrence_t in
[0, 1]. Later copies must be byte-identical to it, since the same inputs
must give the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from mirroratoms.sweep import load_result, render_json

CSV_COLUMNS = ("axis_value", "variant", "quantity",
               "a1", "a2", "b1", "b2", "d", "error_marker")
VARIANTS = ("with_D", "without_D")
UNIT_INTERVAL = ("cmax", "concurrence_t")


@dataclass
class Checked:
    """What the full check of one invocation's outputs found."""

    rows: int = 0
    error_rows: int = 0
    probe_errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)


class Reference:
    """Reference c_max of the probe rows, from cmax_reference.json."""

    def __init__(self, path: Path):
        self.rows = json.loads(path.read_text())["rows"]

    def __len__(self):
        return len(self.rows)

    def lookup(self, spec, axis_value: float, variant: str):
        for ref in self.rows:
            if (ref["axis"] == spec.axis and ref["variant"] == variant
                    and math.isclose(ref["axis_value"], axis_value, rel_tol=1e-12)
                    and set(ref["fixed"]) == set(spec.fixed)
                    and all(math.isclose(v, spec.fixed[k], rel_tol=1e-12)
                            for k, v in ref["fixed"].items())):
                return ref["c_max"]
        return None


def _value_problem(quantity: str, value) -> str | None:
    if value is None or not math.isfinite(value):
        return f"{quantity} value {value!r} without an error marker"
    if quantity in UNIT_INTERVAL and not 0.0 <= value <= 1.0:
        return f"{quantity} value {value!r} outside [0, 1]"
    return None


def _check_json(path: Path, quantity: str, reference: Reference, out: Checked):
    text = path.read_text()
    result = load_result(path)
    if render_json(result) != text:
        out.problems.append(f"{path.name}: load_result -> render_json is not byte-identical")
    if result.spec.quantity != quantity:
        out.problems.append(f"{path.name}: quantity {result.spec.quantity!r}, "
                            f"expected {quantity!r}")
    for row in result.rows:
        out.rows += 1
        if row.error is not None:
            out.error_rows += 1
            continue
        problem = _value_problem(quantity, row.value)
        if problem:
            out.problems.append(f"{path.name}: {problem}")
        if quantity == "cmax":
            ref = reference.lookup(result.spec, row.axis_value, row.variant)
            if ref is not None:
                out.probe_errors.append(abs(row.value - ref))


def _check_csv(path: Path, quantity: str, out: Checked):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            out.problems.append(f"{path.name}: header {header!r}")
            return
        for cells in reader:
            out.rows += 1
            if len(cells) != len(CSV_COLUMNS):
                out.problems.append(f"{path.name}: row with {len(cells)} cells")
                continue
            row = dict(zip(CSV_COLUMNS, cells))
            try:
                numbers = {k: float(row[k]) for k in ("axis_value", "a1", "a2", "b1", "b2", "d")
                           if row[k] != ""}
            except ValueError:
                out.problems.append(f"{path.name}: unparsable number in {cells!r}")
                continue
            if "axis_value" not in numbers or row["variant"] not in VARIANTS:
                out.problems.append(f"{path.name}: bad row {cells!r}")
            if row["error_marker"]:
                out.error_rows += 1
                continue
            try:
                value = float(row["quantity"])
            except ValueError:
                value = None
            problem = _value_problem(quantity, value)
            if problem:
                out.problems.append(f"{path.name}: {problem}")


def _check_cmax_query(path: Path, out: Checked):
    doc = json.loads(path.read_text())
    out.rows += 1
    if set(doc) != {"tau_star", "c_max"}:
        out.problems.append(f"{path.name}: keys {sorted(doc)}")
        return
    problem = _value_problem("cmax", doc["c_max"])
    if problem or not doc["tau_star"] >= 0.0:
        out.problems.append(f"{path.name}: {problem or 'negative tau_star'}")


def check_outputs(inv, out_dir: Path, reference: Reference) -> Checked:
    """Full check of the outputs one completed invocation left in out_dir."""
    out = Checked()
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    for path in files:
        if inv.label == "cmax":
            _check_cmax_query(path, out)
        elif path.suffix == ".json":
            _check_json(path, inv.quantity, reference, out)
        elif path.suffix == ".csv":
            _check_csv(path, inv.quantity, out)
        else:
            out.problems.append(f"unexpected output {path.name}")
    if out.rows != inv.rows:
        out.problems.append(f"{inv.label}: {out.rows} rows, the specs give {inv.rows}")
    return out


def same_bytes(a: Path, b: Path) -> bool:
    """True when the two directory trees hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)
