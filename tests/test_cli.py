"""Command-line interface: subcommands, formats, and exit codes."""

import json

import pytest

from mirroratoms import load_result
from mirroratoms.cli import main

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


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["figure", "11"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["rate", "--z", "0.4"])  # missing --l
    assert info.value.code == 2
