"""Command-line interface: subcommands, formats, and exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mirroratoms
import mirroratoms.cli as cli
from mirroratoms import SystemParams, compute_coefficients, load_result
from mirroratoms.cli import build_parser, main
from mirroratoms.evolution import MAX_GRID_POINTS

ANCHOR = ["--z", "0.4", "--l", "0.3"]


def test_coefficients_text(capsys):
    assert main(["coefficients", *ANCHOR]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["a1"]) == pytest.approx(0.046101496, rel=1e-6)
    assert float(values["d"]) == pytest.approx(0.60605, rel=1e-4)


def test_coefficients_no_d_zeroes_d(capsys):
    assert main(["coefficients", *ANCHOR, "--no-d"]) == 0
    out = capsys.readouterr().out
    assert "d = 0" in out


def test_rate_text_and_variants(capsys):
    assert main(["rate", *ANCHOR]) == 0
    with_d = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert main(["rate", *ANCHOR, "--no-d"]) == 0
    without = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert with_d == pytest.approx(2.4147325569, rel=1e-9)
    assert without < with_d


def test_rate_csv_format(capsys):
    assert main(["rate", *ANCHOR, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("axis_value,variant,quantity")
    assert len(lines) == 3  # header + both variants


def test_evolve_writes_series(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["evolve", *ANCHOR, "--t-end", "2.0", "--points", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 * 2  # both variants per stamp


def test_evolve_json(capsys):
    assert main(["evolve", *ANCHOR, "--t-end", "1.0", "--points", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["spec"]["quantity"] == "concurrence_t"
    assert len(doc["rows"]) == 6


@pytest.mark.parametrize("command", ["rate", "coefficients", "cmax"])
def test_text_format_goes_to_out(tmp_path, capsys, command):
    out = tmp_path / "t.txt"
    assert main([command, *ANCHOR, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main([command, *ANCHOR]) == 0
    assert out.read_text() == capsys.readouterr().out != ""


def test_cmax_text(capsys):
    assert main(["cmax", *ANCHOR]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["c_max"]) == pytest.approx(0.8869, abs=1e-3)
    assert float(out["tau_star"]) == pytest.approx(0.6174, abs=1e-3)


def test_sweep_from_config(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "axis": "z_omega", "grid": [0.2, 0.4],
        "fixed": {"a_over_omega": 1.0, "l_omega": 0.3},
        "quantity": "rate"}))
    assert main(["sweep", "--spec", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5


def test_sweep_no_d_override(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "axis": "z_omega", "grid": [0.4],
        "fixed": {"a_over_omega": 1.0, "l_omega": 0.3},
        "quantity": "rate"}))
    assert main(["sweep", "--spec", str(cfg), "--no-d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and ",without_D," in lines[1]


def test_figure_writes_per_panel_files(tmp_path, capsys):
    rc = main(["figure", "2", "--points", "6", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fig2_a0.1_with_D.csv", "fig2_a0.1_without_D.csv",
                     "fig2_a1_with_D.csv", "fig2_a1_without_D.csv"]
    result = None
    rc = main(["figure", "2", "--points", "6", "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    result = load_result(tmp_path / "fig2_a0.1_with_D.json")
    assert len(result.rows) == 6
    assert all(r.variant == "with_D" for r in result.rows)


def test_exit_code_numerical_domain(capsys):
    assert main(["rate", "--z", "-1", "--l", "0.3"]) == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_config(tmp_path, capsys):
    assert main(["sweep", "--spec", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--spec", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"axis": "bogus", "grid": [1],
                                   "fixed": {}, "quantity": "rate"}))
    assert main(["sweep", "--spec", str(invalid)]) == 2
    scalar = tmp_path / "scalar.json"
    scalar.write_text("5")
    assert main(["sweep", "--spec", str(scalar)]) == 2
    capsys.readouterr()
    rate = {"axis": "z_omega", "grid": [0.4], "quantity": "rate",
            "fixed": {"a_over_omega": 1.0, "l_omega": 0.3}}
    for change in ({"grid": ["abc"]}, {"grid": [None]},
                   {"fixed": {"a_over_omega": "x", "l_omega": 0.3}}):
        invalid.write_text(json.dumps({**rate, **change}))
        assert main(["sweep", "--spec", str(invalid)]) == 2
        assert "must hold numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cmax", "--tol", "0"], ["cmax", "--tol", "nan"], ["cmax", "--tol", "1e-3"],
    ["cmax", "--horizon", "inf"], ["cmax", "--horizon", "0"], ["cmax", "--horizon", "nan"],
    ["evolve", "--t-end", "-1"], ["evolve", "--t-end", "0", "--points", "3"],
    ["evolve", "--t-end", "inf"],
], ids=" ".join)
def test_bad_solver_flags_exit_2(capsys, argv):
    assert main([*argv, *ANCHOR]) == 2
    assert f"error: {argv[1]} must" in capsys.readouterr().err


def test_non_positive_counts_exit_2(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "axis": "z_omega", "grid": [0.4],
        "fixed": {"a_over_omega": 1.0, "l_omega": 0.3}, "quantity": "rate"}))
    assert main(["figure", "2", "--points", "0", "--out", str(tmp_path)]) == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("fig2_*"))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_sweep_non_finite_grid_exits_2(tmp_path, capsys, bad):
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"axis": "tau", "grid": [0.0, %s], "quantity": "concurrence_t", '
                   '"fixed": {"z_omega": 0.4, "a_over_omega": 1.0, "l_omega": 0.3}}' % bad)
    assert main(["sweep", "--spec", str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"grid": "14"}, {"grid": [True]}, {"grid": ["0.5"]},
    {"fixed": {"a_over_omega": True, "l_omega": 0.3}},
], ids=json.dumps)
def test_sweep_strings_and_booleans_exit_2(tmp_path, capsys, change):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"axis": "z_omega", "grid": [0.4], "quantity": "rate",
                               "fixed": {"a_over_omega": 1.0, "l_omega": 0.3}, **change}))
    assert main(["sweep", "--spec", str(cfg)]) == 2
    assert "must hold numbers" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["coefficients", "rate", "evolve", "sweep"])
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys, command, fmt):
    if command == "sweep":
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "axis": "z_omega", "grid": [0.2, 0.4],
            "fixed": {"a_over_omega": 1.0, "l_omega": 0.3}, "quantity": "rate"}))
        argv = ["sweep", "--spec", str(cfg)]
    else:
        argv = [command, *ANCHOR]
        if command == "evolve":
            argv += ["--t-end", "1.0", "--points", "4"]
    argv += ["--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed
    assert printed.startswith(b"axis_value," if fmt == "csv" else b"{")


def test_evolve_points_beyond_the_grid_budget_exit_2(capsys):
    argv = ["evolve", *ANCHOR, "--points", str(MAX_GRID_POINTS + 1)]
    assert main(argv) == 2
    assert "error: --points must lie in" in capsys.readouterr().err


def test_figure_points_beyond_the_grid_budget_exit_2(tmp_path, capsys, monkeypatch):
    presets = []

    def recorded(figure, points):
        presets.append(points)
        return []  # no sweep runs, whatever the count

    monkeypatch.setattr(cli, "preset", recorded)
    argv = ["figure", "3", "--out", str(tmp_path)]
    assert main([*argv, "--points", str(MAX_GRID_POINTS + 1)]) == 2
    assert f"error: --points must lie in [1, {MAX_GRID_POINTS}], got {MAX_GRID_POINTS + 1}" \
        in capsys.readouterr().err
    assert main([*argv, "--points", "100000000"]) == 2
    assert presets == [] and not list(tmp_path.iterdir())
    assert main([*argv, "--points", str(MAX_GRID_POINTS)]) == 0
    assert presets == [MAX_GRID_POINTS]


def test_evolve_default_grid_beyond_its_budget_exits_3(capsys):
    # d ~ 1/(omega L) needs a grid finer than the budget over 6/(4 a1)
    assert main(["evolve", "--z", "0.5", "--accel", "0.1", "--l", "1e-3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


@pytest.mark.parametrize("command", ["coefficients", "rate", "evolve", "cmax"])
def test_gamma0_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, *ANCHOR, "--gamma0", "2"])
    assert info.value.code == 2
    assert "--gamma0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coefficients", "rate", "evolve", "cmax"])
def test_omega_flag_is_gone(capsys, command):
    # --z, --l and --accel are omega*z, omega*L and a/omega already
    with pytest.raises(SystemExit) as info:
        main([command, *ANCHOR, "--omega", "2"])
    assert info.value.code == 2
    assert "--omega" in capsys.readouterr().err


def _rows(capsys, argv, fmt):
    """The emitted rows of a csv/json command, as dicts of the row fields."""
    assert main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        return json.loads(out)["rows"]
    return list(csv.DictReader(io.StringIO(out)))


_POINTS = [ANCHOR, ["--z", "2", "--l", "9", "--accel", "0.5"],
           ["--z", "1e-2", "--l", "0.05", "--accel", "0"]]


@pytest.mark.parametrize("no_d", [[], ["--no-d"]], ids=["with_D", "no_d"])
@pytest.mark.parametrize("point", _POINTS, ids=" ".join)
def test_text_prints_the_row_of_the_sweep(capsys, point, no_d):
    argv = [*point, *no_d]
    assert main(["coefficients", *argv]) == 0
    text = capsys.readouterr().out
    assert main(["rate", *argv]) == 0
    rate_text = capsys.readouterr().out
    for fmt in ("csv", "json"):
        row = _rows(capsys, ["coefficients", *argv], fmt)[0]  # the selected variant
        assert row["variant"] == ("without_D" if no_d else "with_D")
        assert text == "".join(f"{k} = {float(row[k]):.12g}\n"
                               for k in ("a1", "a2", "b1", "b2", "d"))
        rate = float(_rows(capsys, ["rate", *argv], fmt)[0]["quantity"])
        assert rate_text == f"rate = {rate:.12g}\ngenerates = {rate > 0.0}\n"


@pytest.mark.parametrize("command, fmt", [
    ("coefficients", "text"), ("coefficients", "csv"), ("coefficients", "json"),
    ("rate", "text"), ("rate", "csv"), ("rate", "json"),
    ("evolve", "csv"), ("evolve", "json"), ("cmax", "text"), ("cmax", "json"),
])
def test_inertial_limit_runs_in_every_command(capsys, command, fmt):
    argv = [command, *ANCHOR, "--accel", "0"]
    if fmt == "text" or command == "cmax":
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out
        return
    exact = compute_coefficients(SystemParams(1.0, 0.0, 0.4, 0.3))
    rows = _rows(capsys, argv, fmt)
    assert rows and not any(row["error_marker"] for row in rows)
    for row in rows:
        coeffs = exact if row["variant"] == "with_D" else exact.without_d()
        assert [float(row[k]) for k in ("a1", "a2", "b1", "b2", "d")] == \
            [coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, coeffs.d]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["coefficients", "rate"])
def test_failing_configuration_exits_3_and_writes_nothing(tmp_path, capsys, command, fmt):
    # omega*z = 1e200 overflows the diagonal distance sqrt(L^2/4 + z^2)
    argv = [command, "--z", "1e200", "--l", "0.3", "--format", fmt]
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert main([*argv, *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be > 0, got inf\n"
    assert not out.exists()


def test_readme_flags_are_accepted_by_the_parser():
    # a removed flag must not linger in the synopsis
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split() for line in block.splitlines() if line.startswith("mirroratoms ")]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted({words[1] for words in commands}) == sorted(subparsers)
    for words in commands:
        accepted = subparsers[words[1]]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z0-9-]*", " ".join(words[2:])):
            assert flag in accepted, f"README: mirroratoms {words[1]} {flag}"


def test_cli_import_loads_no_scipy():
    # the commands need neither the Wightman oracle's quadrature nor the
    # expm fallback, so importing them must not pay for scipy
    code = ("import sys, mirroratoms.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.linalg')))")
    src = str(Path(mirroratoms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    assert done.stdout.strip() == "[]"


# what the commands, the sweeps and the benchmark scripts use
_PUBLIC = {
    "CoefficientSet", "ConcurrenceReport", "ConvergenceError", "DegenerateKernelError",
    "DomainError", "EvolutionResult", "GenerationReport", "InvariantError", "SweepResult",
    "SweepRow", "SweepSpec", "SystemParams", "XState", "compute_coefficients",
    "concurrence_x", "coth", "default_horizon", "default_time_grid", "emit",
    "evolve_closed", "generation_rate", "load_result", "max_concurrence",
    "max_concurrences", "population_generator", "prepare_initial", "preset", "run_sweep",
}


def test_public_surface_is_pinned_and_loads_no_oracle():
    assert len(mirroratoms.__all__) == len(_PUBLIC)
    assert set(mirroratoms.__all__) == _PUBLIC
    assert all(hasattr(mirroratoms, name) for name in _PUBLIC)
    # the test oracles are importable in the child, and must stay unloaded
    code = ("import sys, mirroratoms; "
            "print(sorted(m for m in sys.modules if m in ('oracles', 'scipy.integrate')))")
    src = str(Path(mirroratoms.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    assert done.stdout.strip() == "[]"


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    no_d, plain = ["coefficients", *ANCHOR, "--no-d"], ["coefficients", *ANCHOR]
    alone = []
    for argv in (no_d, plain):
        build_parser.cache_clear()
        alone.append(run(argv))
    build_parser.cache_clear()
    assert [run(no_d), run(plain)] == alone
    assert build_parser.cache_info().misses == 1
    assert "d = 0\n" in alone[0] and "d = 0\n" not in alone[1]


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["figure", "11"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["rate", "--z", "0.4"])  # missing --l
    assert info.value.code == 2


# SHA-256 of each figure's output files, concatenated in file-name order.
_FIGURE_DIGESTS = {
    ("2", "--points", "9", "--format", "json"):
        "b5e0dc9ec284c6bdaa8bd88eeb98e6fcda365d0a2a1e59f919199e9946358238",
    ("3", "--points", "9", "--format", "json"):
        "eedc909cb05f4839ca5c2e73b815f151d8ef3afba14cda316507215c2ca197db",
    ("4", "--points", "9", "--format", "json"):
        "5b4ad821df1491afb2365e04e6d2d9155eb7c13e5c4773a09bbd3f67d44e0085",
    ("5", "--format", "csv"):
        "eec8b0c32cf6219944fabab9c8fc13bb53701ab19652e5cf61f7f49d09729d61",
    ("6", "--format", "csv"):
        "1d988810c1360c7e718d7610eb44e2956e7f4166b0a8ab91d8a4a5fdc8de89bb",
    ("7", "--points", "5", "--format", "json"):
        "3014f78e88615c255c3a9e26f80c6447eef6a599fed9f5d86db74fee61ca8676",
    ("8", "--points", "5", "--format", "json"):
        "2f22c0cd3927050d72431aaaa496e81233eb233f8fa1a874ead40feb936a7cc5",
    ("9", "--points", "5", "--format", "json"):
        "012a8fa9cc7f25b77371bf611c55b4791ba00d15d8cf6156bb88a993ca8506d2",
    ("10", "--points", "5", "--format", "json"):
        "2bfb52317f48786acc0727ba1d6e7ead312e33f212b84e7b157a8f8c71fb0148",
    # the rate figures at the benchmark's density, and one in CSV
    ("2", "--points", "1500", "--format", "json"):
        "57c0baac94f4728cd549f15dc0e8d4da8b0203f1e2eccd90c1affb206f74e147",
    ("3", "--points", "1500", "--format", "json"):
        "b5e6b237bae6b6cf2fb56c3a9609d8ade0ab137d847c2e2b692a3967e375effb",
    ("4", "--points", "1500", "--format", "json"):
        "4dbb6d1ecdf5a640dabdfc72599e9062afe8d6b4db2016950bd04f1aebb79b6f",
    ("3", "--points", "40", "--format", "csv"):
        "117076f59db5ac213b6ad80498fd7e33f1bd15fc86def4726798e0f93612e33b",
    # the cmax figures at a density with many-bracket rows (266 in one row of
    # figure 10), a search grid of 25 178 samples and panels whose grids sum
    # to over 150 000 samples
    ("7", "--points", "17", "--format", "json"):
        "22ff0a871941d33ebb32fe1971dcb3de9e5ada78cc3bfc9c28bf23a54cf2770a",
    ("8", "--points", "17", "--format", "json"):
        "94c1fe9cdb0f6d0d59e4d80d16342001ca3cc01d9e7b1ac2adddd2d643bc1081",
    ("9", "--points", "17", "--format", "json"):
        "0c0002fb149d0597b21c0131cf1f12c98a8e37593a357ee534e17b0f4de18da7",
    ("10", "--points", "17", "--format", "json"):
        "3a892314e418944bf54e014f35b98819761a07f61caa8497e0764d55e4f44ef5",
}


def _digest_id(figure) -> str:
    """fig<N> for a figure's first digest, fig<N>-<points>-<format> for the others."""
    first = next(key for key in _FIGURE_DIGESTS if key[0] == figure[0])
    if figure == first:
        return f"fig{figure[0]}"
    return "-".join([f"fig{figure[0]}", *(w for w in figure[1:] if not w.startswith("--"))])


@pytest.mark.parametrize("figure", sorted(_FIGURE_DIGESTS), ids=_digest_id)
def test_figure_bytes_are_pinned(tmp_path, capsys, figure):
    """The emitted bytes of figures 2-10 against digests recorded before the
    row templates and the kernel pair replaced per-cell formatting and per-
    kernel calls; those of figures 2-4 at 1500 points and of figure 3 in
    CSV were recorded before sweeps stored columns, those of figures 7-10 at
    17 points before cmax rows were searched in batches. The digests belong to
    the libm they were recorded with (glibc 2.36, x86_64, numpy 2.4.6):
    another libm may round sin, cos, asinh or exp differently in the last
    bit. A change that alters rows on
    purpose updates the digests here and names the rows that changed."""
    out = tmp_path / "out"
    assert main(["figure", figure[0], "--out", str(out), *figure[1:]]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _FIGURE_DIGESTS[figure]


# Sweep configs whose files no figure digest covers: both variants
# interleaved in one file, a --no-d sweep, a tau sweep, and error rows (the
# diagonal distance overflows at omega*z = 1e155; omega*L = 1.83e-8 at
# omega*z = 24.1, a/omega = 1.88 is a degenerate-kernel row of cmax).
_SWEEP_CONFIGS = {
    "rate": {"axis": "z_omega", "quantity": "rate",
             "grid": [0.01, 0.2, 0.4, 1.0, 3.7, 20.0, 150.0, 4000.0, 1e155],
             "fixed": {"a_over_omega": 1.0, "l_omega": 0.3}},
    "coefficients": {"axis": "a_over_omega", "quantity": "coefficients",
                     "grid": [0.0, 1e-7, 2.5e-6, 0.02, 0.5, 1.0, 2.7, 1e160],
                     "fixed": {"z_omega": 0.4, "l_omega": 3.0}},
    "cmax": {"axis": "l_omega", "quantity": "cmax",
             "grid": [1.83e-8, 1e-4, 0.3, 1.9, 4.0],
             "fixed": {"z_omega": 24.1, "a_over_omega": 1.88}},
    "tau": {"axis": "tau", "quantity": "concurrence_t",
            "grid": [0.0, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0],
            "fixed": {"z_omega": 0.4, "a_over_omega": 1.0, "l_omega": 0.3}},
}

# SHA-256 of a sweep's output file, recorded before rate, coefficients and
# cmax sweeps were computed as one array program and their shared cells
# formatted once per grid point; the same libm caveat as the figure
# digests applies.
_SWEEP_DIGESTS = {
    ("rate", "json"):
        "e05b183b15809572b3c7f8fb1c3ec0711e90a0df515ab8a951bad85f50863fd4",
    ("rate", "csv"):
        "5c8f8ad18a118a3aeab844a1033a42044aa2936f7f0083868044e96bde960c8e",
    ("rate", "json", "--no-d"):
        "c8c05afa8c3f390ba83436d8072d5da222943d400d094f908275691f30cb4358",
    ("coefficients", "json"):
        "284bf03961fb1cacf59830d6fdc645719bef66e35db8773d6a36972529d0cd93",
    ("coefficients", "csv"):
        "592a62746e65ca12063568ef19d2f12beb091739087035aa927d62f1009d08db",
    ("cmax", "json"):
        "75919f8b4beae4dc73e7781b3856b514db8cc84612d2ee12d79e5ebde8310af7",
    ("cmax", "csv"):
        "42020b35d844a99e455852c604c541ba95ed813b7213c1e910906b1db3c6de4f",
    ("tau", "json"):
        "53926f7052d493eee4448a688e0bce9f231451db51b037819a96edd8f0e983d7",
}


@pytest.mark.parametrize("sweep", sorted(_SWEEP_DIGESTS), ids="-".join)
def test_sweep_bytes_are_pinned(tmp_path, capsys, sweep):
    name, fmt, *flags = sweep
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_SWEEP_CONFIGS[name]))
    out = tmp_path / f"out.{fmt}"
    assert main(["sweep", "--spec", str(config), "--format", fmt, "--out", str(out),
                 *flags]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SWEEP_DIGESTS[sweep]
