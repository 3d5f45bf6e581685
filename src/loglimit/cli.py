"""Command-line harness.

Subcommands: norms, verify-ineq, osgood, split, simulate, sweep, rate-fit.
The process exits with status 0 exactly when every inequality the invoked
command asserts holds, 1 when one fails, and 2 on an input it rejects.
`python -m loglimit` runs it too.

`simulate` and `sweep` read a structured text config of `key = value` lines
(# starts a comment).  Both accept exactly the keys grid, nu (comma list for
sweep), T, ic, samples and out; ic takes the ids of inviscid.initial_condition
as written (taylor_green, two_mode, zero, random_<seed>).  An unknown key, a key set twice, a value that does not
convert and a sweep whose viscosities collide on one run directory name
(nu_<nu:.1e>) are errors (exit status 2).  So is a gaps.csv that `rate-fit`
cannot take as a GapSeries (a malformed CSV, a nan sup gap, a repeated nu,
rows that disagree on M or theory_exponent).

`simulate` and `sweep` print the realised CFL number (flow.RunResult.max_cfl;
of a sweep, the largest over its runs) and, on stderr, a warning line when it
exceeds flow.CFL, the Courant number the time step is fixed at; the warning
does not change the exit status.
`simulate` maps flow.gradient_bmo over its run's states (grid._map_tasks).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import flow, inviscid, logineq, osgood, splitting
from .flow import SolverConfig, run
from .grid import GridSpec, _map_tasks, csv_line, load_field_csv, write_csv
from .norms import NORM_CSV_HEADER, compute_norms

_COMMON_DEFAULTS = {"grid": "64", "ic": "taylor_green"}
_SIMULATE_DEFAULTS = {**_COMMON_DEFAULTS, "nu": "0.0", "T": "1.0", "samples": "1",
                      "out": "run_output"}
_SWEEP_DEFAULTS = {**_COMMON_DEFAULTS, "nu": "1e-1,1e-2,1e-3", "T": "0.5", "samples": "100",
                   "out": "sweep_output"}
# the solver keys of both configs: config key -> (ExperimentConfig field, type)
_SOLVER_KEYS = {"grid": ("grid_points", int), "T": ("horizon", float),
                "samples": ("min_samples", int)}


def _load_config(path: str, defaults: dict) -> dict:
    """Config values over `defaults`, rejecting keys it lacks and keys set twice."""
    given = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}; expected one of {', '.join(defaults)}")
        if key in given:
            raise ValueError(f"config key {key!r} is set twice")
        given[key] = val
    return {**defaults, **given}


def _value(conf: dict, key: str, convert):
    try:
        return convert(conf[key])
    except ValueError as exc:
        raise ValueError(f"config key {key!r} = {conf[key]!r}: {exc}") from None


def _solver_settings(conf: dict) -> dict:
    """The solver keys of a loaded config, converted, as ExperimentConfig fields."""
    return {field: _value(conf, key, kind) for key, (field, kind) in _SOLVER_KEYS.items()}


def _sweep_config(path: str) -> inviscid.ExperimentConfig:
    conf = _load_config(path, _SWEEP_DEFAULTS)
    nus = _value(conf, "nu", lambda text: tuple(float(v) for v in text.split(",")))
    return inviscid.ExperimentConfig(nu_list=nus, initial_condition_id=conf["ic"],
                                     output_dir=conf["out"], **_solver_settings(conf))


def _cmd_norms(args) -> int:
    field = load_field_csv(args.field)
    report = compute_norms(field, sigma=args.sigma)
    print(csv_line(NORM_CSV_HEADER))
    print(report.csv_row())
    return 0


def _cmd_verify_ineq(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    scan = logineq.scan_corpus(sizes=sizes)
    if args.out:
        scan.write_csv(args.out)
        print(f"wrote {len(scan.trials)} trials to {args.out}")
    for n in scan.sizes:
        print(f"size {n:4d}: max ratio {scan.max_ratio_by_size[n]:.6f}")
    slope = scan.ratio_slope
    print(f"overall max ratio {scan.max_ratio:.6f}, refinement log-slope "
          + (f"{slope:.4f}" if slope is not None else "n/a (one size)"))
    ok = math.isfinite(scan.max_ratio) and (slope is None or slope <= 0.05)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_osgood(args) -> int:
    problem = osgood.OsgoodProblem.constant(
        M=args.f_const, nu=args.nu, horizon=args.T, g=args.g_const, g0=args.g0_const
    )
    if problem.nu >= 1:
        raise ValueError("the closed-form envelope requires nu < 1")
    traj = osgood.integrate_majorant(problem)
    log_bounds = np.array([osgood.log_gronwall_bound(problem, t) for t in traj.times])
    if args.out:
        write_csv(args.out, ("t", "y", "bound"), (
            (t, math.exp(ly) if ly < 709 else math.inf, math.exp(lb) if lb < 709 else math.inf)
            for t, ly, lb in zip(traj.times.tolist(), traj.log_y.tolist(), log_bounds.tolist())
        ))
        print(f"wrote trajectory to {args.out}")
    if traj.blow_up:
        print(f"majorant blew up after t = {traj.times[-1]:.6g}")
        print("FAIL")
        return 1
    dominated = bool(traj.log_y[-1] <= log_bounds[-1] + 1e-9)
    print(f"y(T) = exp({traj.log_y[-1]:.6f}), bound(T) = exp({log_bounds[-1]:.6f})")
    print("PASS" if dominated else "FAIL")
    return 0 if dominated else 1


def _cmd_split(args) -> int:
    field = load_field_csv(args.field)
    thresholds = (
        np.array([args.threshold])
        if args.threshold is not None
        else np.geomspace(1.0 + 1e-6, max(2.0, 2.0 * float(np.abs(field.values).max())), 20)
    )
    rows = splitting.threshold_sweep(field, args.sigma, thresholds)
    print(csv_line(splitting.SPLIT_CSV_HEADER))
    for row in rows:
        print(csv_line(row[key] for key in splitting.SPLIT_CSV_HEADER))
    ok = all(row["satisfied"] for row in rows)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _report_cfl(max_cfl: float) -> None:
    """Print the realised CFL number of a run (of a sweep: its largest), and
    a warning line on stderr when it exceeds flow.CFL beyond rounding."""
    print(f"realised CFL: {max_cfl:.4g} (dt set for {flow.CFL:g})")
    if max_cfl > flow.CFL * (1 + 1e-9):
        print(f"warning: realised CFL {max_cfl:.4g} exceeds the {flow.CFL:g} that dt was set for",
              file=sys.stderr)


def _cmd_simulate(args) -> int:
    conf = _load_config(args.config, _SIMULATE_DEFAULTS)
    settings = _solver_settings(conf)
    grid = GridSpec(settings.pop("grid_points"))
    cfg = SolverConfig(grid=grid, nu=_value(conf, "nu", float), **settings)
    result = run(inviscid.initial_condition(grid, conf["ic"]), cfg)
    result = result.with_f0(_map_tasks(flow.gradient_bmo, [(s,) for s in result.states]))
    inviscid.write_run(result, Path(conf["out"]))
    e = result.series.energy
    print(f"steps: {len(result.states) - 1}, samples: {len(result.sample_times)}")
    print(f"energy: {e[0]:.9g} -> {e[-1]:.9g}")
    _report_cfl(result.max_cfl)
    ok = not result.blow_up and (cfg.nu == 0.0 or bool(np.all(np.diff(e) <= 1e-12 + 1e-9 * e[:-1])))
    print("PASS" if ok else "FAIL (blow-up or energy increase under viscosity)")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    result = inviscid.run_sweep(_sweep_config(args.config))
    series = result.series
    print(f"M = {series.M:.6g}, theory exponent = {series.theory_exponent:.6g}")
    for nu, sup in zip(series.nu, series.sup_gap):
        print(f"nu = {nu:>9.3e}: sup gap = {sup:.9g}")
    _report_cfl(max(r.max_cfl for r in (result.euler, *result.runs.values())))
    ok = not result.aborted and series.monotone
    if len(series.nu) >= 3:
        rate = inviscid.verify_rate(series)
        print(f"fitted exponent = {rate.rho:.4f}, violations: {len(rate.violations)}")
        ok = ok and rate.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_rate_fit(args) -> int:
    rate = inviscid.verify_rate(inviscid.load_gap_series(args.gaps))
    print(f"rho = {rate.rho:.6f}, theory exponent = {rate.theory_exponent:.6g}, "
          f"C_fit = {rate.c_fit:.6g}")
    for nu_v, sup_v, bound in rate.violations:
        print(f"violation at nu = {nu_v:.3e}: sup gap {sup_v:.6g} > bound {bound:.6g}")
    print("PASS" if rate.passed else "FAIL")
    return 0 if rate.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loglimit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", help="norm report of a field CSV")
    p.add_argument("field")
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("verify-ineq", help="corpus scan of the duality inequality")
    p.add_argument("--sizes", default="32,64,128")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_ineq)

    p = sub.add_parser("osgood", help="integrate the majorant and its envelope")
    p.add_argument("--f-const", type=float, required=True, dest="f_const")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--g-const", type=float, default=0.0, dest="g_const")
    p.add_argument("--g0-const", type=float, default=0.0, dest="g0_const")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_osgood)

    p = sub.add_parser("split", help="truncation split bounds for a field CSV")
    p.add_argument("--field", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("simulate", help="run the flow solver from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="viscosity sweep from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rate-fit", help="fit and check the rate bound on a gaps.csv")
    p.add_argument("gaps")
    p.set_defaults(func=_cmd_rate_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
