"""Command-line front end.

Subcommands: coefficients, rate, evolve, cmax, sweep, figure.
Exit codes: 0 success, 2 configuration error, 3 numerical-domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .concurrence import generation_rate, max_concurrence
from .correlations import SystemParams, compute_coefficients
from .errors import NUMERICAL_ERRORS, DomainError
from .evolution import default_time_grid, tau_horizon
from .sweep import VARIANTS, SweepResult, SweepSpec, emit, preset, run_sweep


class ConfigError(Exception):
    pass


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--omega", type=float, default=1.0, help="transition frequency")
    p.add_argument("--accel", type=float, default=1.0, help="proper acceleration")
    p.add_argument("--z", type=float, required=True, help="atom-boundary distance")
    p.add_argument("--l", type=float, required=True, help="interatomic separation")
    p.add_argument("--gamma0", type=float, default=1.0,
                   help="spontaneous-emission normalization; scales direct text "
                        "output, while csv/json sweeps are normalized to gamma0=1")
    p.add_argument("--no-d", action="store_true",
                   help="zero the coherent interatomic coupling d")


def _add_output(p: argparse.ArgumentParser, formats=("text", "csv", "json")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", type=Path, default=None,
                   help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mirroratoms",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coefficients", help="print the five reduced rates")
    _add_params(p)
    _add_output(p)

    p = sub.add_parser("rate", help="initial entanglement-generation rate")
    _add_params(p)
    _add_output(p)

    p = sub.add_parser("evolve", help="concurrence time series from the |10> state")
    _add_params(p)
    p.add_argument("--t-end", type=float, default=None,
                   help="horizon in units of 1/gamma0 (default: 6 coherence e-folds)")
    p.add_argument("--points", type=int, default=None,
                   help="uniform grid size (default: oscillation-resolving grid)")
    _add_output(p, formats=("csv", "json"))

    p = sub.add_parser("cmax", help="maximum of concurrence during evolution")
    _add_params(p)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="refinement tolerance in tau")
    _add_output(p)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--spec", type=Path, required=True, help="sweep config file")
    p.add_argument("--no-d", action="store_true",
                   help="restrict to the without_D variant")
    _add_output(p, formats=("csv", "json"))

    p = sub.add_parser("figure", help="run a figure preset, write one file per panel and variant")
    p.add_argument("number", type=int, choices=range(2, 11), metavar="N",
                   help="figure number (2..10)")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--points", type=int, default=400, help="grid points per axis")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def _write(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _params_from(args) -> SystemParams:
    return SystemParams(omega=args.omega, accel=args.accel, z=args.z, l=args.l,
                        gamma0=args.gamma0)


def _coefficients(args, params: SystemParams):
    coeffs = compute_coefficients(params)
    return coeffs.without_d() if args.no_d else coeffs


def _point_spec(args, params: SystemParams, quantity: str, tau=None) -> SweepSpec:
    """The sweep of a single-configuration command: over its one omega*z
    value, or over the tau grid `tau`."""
    fixed = {"z_omega": params.z * params.omega,
             "a_over_omega": params.accel / params.omega,
             "l_omega": params.l * params.omega}
    axis, grid = ("z_omega", (fixed.pop("z_omega"),)) if tau is None else ("tau", tau)
    return SweepSpec(axis=axis, grid=grid, fixed=fixed, quantity=quantity,
                     variants=("without_D",) if args.no_d else VARIANTS)


def cmd_coefficients(args) -> int:
    params = _params_from(args)
    if args.format == "text":
        coeffs = _coefficients(args, params)
        for name in ("a1", "a2", "b1", "b2", "d"):
            print(f"{name} = {getattr(coeffs, name):.12g}")
    else:
        emit(run_sweep(_point_spec(args, params, "coefficients")), args.format, args.out)
    return 0


def cmd_rate(args) -> int:
    params = _params_from(args)
    if args.format == "text":
        report = generation_rate(_coefficients(args, params))
        print(f"rate = {report.rate:.12g}")
        print(f"generates = {report.generates}")
    else:
        emit(run_sweep(_point_spec(args, params, "rate")), args.format, args.out)
    return 0


def cmd_evolve(args) -> int:
    params = _params_from(args)
    coeffs = compute_coefficients(params)
    horizon = tau_horizon(coeffs)  # also rejects a1 <= 0 under an explicit --t-end
    t_end = args.t_end if args.t_end is not None else horizon
    if args.points is not None:
        if args.points < 2:
            raise ConfigError("--points must be at least 2")
        grid = tuple(np.linspace(0.0, t_end, args.points))
    else:
        grid = tuple(default_time_grid(coeffs, t_end))
    emit(run_sweep(_point_spec(args, params, "concurrence_t", grid)), args.format, args.out)
    return 0


def cmd_cmax(args) -> int:
    params = _params_from(args)
    tau_star, c_max = max_concurrence(params, horizon=args.horizon, tol=args.tol,
                                      coeffs=_coefficients(args, params))
    if args.format == "text":
        print(f"tau_star = {tau_star:.12g}")
        print(f"c_max = {c_max:.12g}")
    elif args.format == "json":
        _write(json.dumps({"tau_star": tau_star, "c_max": c_max}) + "\n", args.out)
    else:
        _write("tau_star,c_max\n" + f"{tau_star:.17g},{c_max:.17g}\n", args.out)
    return 0


def _load_spec(path: Path) -> SweepSpec:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read sweep config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sweep config is not valid JSON: {exc}") from exc
    try:
        return SweepSpec.from_dict(doc)
    except DomainError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    if args.no_d:
        spec = replace(spec, variants=("without_D",))
    emit(run_sweep(spec), args.format, args.out)
    return 0


def _panel_slug(specs, index: int) -> str:
    short = {"z_omega": "z", "a_over_omega": "a", "l_omega": "L"}
    keys = [k for k in ("z_omega", "a_over_omega", "l_omega")
            if len({s.fixed.get(k) for s in specs}) > 1]
    parts = [f"{short[k]}{specs[index].fixed[k]:g}" for k in keys]
    return "_".join(parts)


def cmd_figure(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be a positive integer, got {args.points}")
    specs = preset(args.number, points=args.points)
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, spec in enumerate(specs):
        result = run_sweep(spec)
        slug = _panel_slug(specs, i)
        for variant in spec.variants:
            rows = [r for r in result.rows if r.variant == variant]
            stem = f"fig{args.number}_{slug}_{variant}" if slug else \
                f"fig{args.number}_{variant}"
            path = args.out / f"{stem}.{args.format}"
            emit(SweepResult(spec=replace(spec, variants=(variant,)), rows=rows),
                 args.format, path)
            written.append(path)
    for path in written:
        print(path)
    return 0


_COMMANDS = {
    "coefficients": cmd_coefficients,
    "rate": cmd_rate,
    "evolve": cmd_evolve,
    "cmax": cmd_cmax,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
