"""Viscosity sweeps: gap measurement, rate fitting, majorant comparison, and
the per-interval iteration that converts an integrable coefficient into a
finite chain of decay exponents.

A sweep pairs one zero-viscosity reference run with one run per viscosity on
identical sample times.  The regularity level M = sup_t (f0 + g0^2) is
measured from the reference run, and the theoretical decay exponent of the
gap is exp(-2 M T); the empirical exponent is the least-squares slope of
log sup-gap against log viscosity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flow import (
    RunResult,
    SolverConfig,
    gap_l2,
    paired_velocities,
    random_band_velocity,
    run,
    taylor_green_velocity,
    two_mode_velocity,
    velocity_gradient,
)
from .grid import GridSpec, ScalarField, VectorField, save_field_csv
from .osgood import MajorizationReport, OsgoodProblem, check_majorization
from .splitting import SplitConfig, truncate_split

GAPS_CSV_HEADER = ("nu", "sup_gap", "M", "theory_exponent", "bound_value")

INITIAL_CONDITIONS = ("taylor_green", "two_mode", "random_42")


def initial_condition(grid: GridSpec, ic_id: str) -> VectorField:
    if ic_id == "taylor_green":
        return taylor_green_velocity(grid)
    if ic_id == "two_mode":
        return two_mode_velocity(grid)
    if ic_id.startswith("random_"):
        return random_band_velocity(grid, seed=int(ic_id.split("_", 1)[1]))
    if ic_id == "zero":
        return taylor_green_velocity(grid, amplitude=0.0)
    raise ValueError(f"unknown initial condition {ic_id!r}")


def run_label(nu: float) -> str:
    """Name of a viscous run's output directory."""
    return f"nu_{nu:.1e}"


@dataclass(frozen=True)
class ExperimentConfig:
    grid_points: int
    horizon: float
    nu_list: tuple[float, ...]
    sigma: float = 1.0
    initial_condition_id: str = "taylor_green"
    cfl: float = 0.5
    min_samples: int = 100
    output_stride: int = 1
    output_dir: str | None = None

    def __post_init__(self) -> None:
        nus = tuple(float(v) for v in self.nu_list)
        object.__setattr__(self, "nu_list", nus)
        if len(nus) == 0 or any(v <= 0 or v >= 1 for v in nus):
            raise ValueError("nu_list entries must lie in (0, 1)")
        if any(a <= b for a, b in zip(nus, nus[1:])):
            raise ValueError("nu_list must be strictly decreasing")
        labels = [run_label(nu) for nu in nus]
        if self.output_dir is not None and len(set(labels)) < len(labels):
            raise ValueError(f"viscosities {nus} collide on run directory names {labels}")

    def solver_config(self, nu: float) -> SolverConfig:
        return SolverConfig(
            grid=GridSpec(self.grid_points),
            nu=nu,
            horizon=self.horizon,
            cfl=self.cfl,
            output_stride=self.output_stride,
            min_samples=self.min_samples,
            sigma=self.sigma,
        )


@dataclass(frozen=True)
class GapSeries:
    """Measured sup-gaps across a viscosity sweep plus the rate ingredients."""

    nu: np.ndarray
    sup_gap: np.ndarray
    M: float
    theory_exponent: float
    fitted_exponent: float | None

    @property
    def monotone(self) -> bool:
        # nu is stored decreasing; gaps should not increase as nu shrinks
        return bool(np.all(np.diff(self.sup_gap) <= 1e-12 + 1e-6 * self.sup_gap[:-1]))


@dataclass(frozen=True)
class SweepResult:
    """`runs` holds every viscous run started, a blown-up last one included
    (then `aborted` is set); the paired quantities cover completed runs."""

    config: ExperimentConfig
    euler: RunResult
    runs: dict  # nu -> RunResult
    gap_curves: dict  # nu -> np.ndarray of gap(t) at sample times
    forcing: dict  # nu -> np.ndarray of measured_forcing at sample times
    series: GapSeries
    aborted: bool = False


def fit_exponent(nu: np.ndarray, sup_gap: np.ndarray) -> float | None:
    """Least-squares slope of log sup-gap against log nu (None if degenerate)."""
    keep = sup_gap > 0
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(nu[keep]), np.log(sup_gap[keep]), 1)[0])


def run_sweep(cfg: ExperimentConfig, compute_norms: bool = True) -> SweepResult:
    """One reference run plus one viscous run per nu, paired sample by sample.

    The sweep stops at the first viscous run that blows up.  One pass over
    the completed runs' paired samples, each velocity derived once, then
    records per nu the gap curve (gap_l2) and the forcing (measured_forcing).

    The regularity series f0 is sampled on the reference run only (that is
    where M and the majorant coefficient come from); viscous runs skip the
    costly f0 scan, since only their g0 series enters any downstream check.
    """
    u0 = initial_condition(GridSpec(cfg.grid_points), cfg.initial_condition_id)
    euler = run(u0, cfg.solver_config(0.0), compute_norms=compute_norms)
    if euler.blow_up:
        raise RuntimeError("reference run blew up; sweep aborted")
    runs: dict = {}
    aborted = False
    for nu in cfg.nu_list:
        runs[nu] = run(u0, cfg.solver_config(nu), compute_norms=False)
        if runs[nu].blow_up:
            aborted = True
            break
    done = [nu for nu, res in runs.items() if not res.blow_up]
    gap_curves = {nu: np.zeros(len(euler.states)) for nu in done}
    forcing = {nu: np.zeros(len(euler.states)) for nu in done}
    if done:
        for i, (u_e, *u_nus) in enumerate(paired_velocities(euler, *(runs[nu] for nu in done))):
            for nu, u_nu in zip(done, u_nus):
                gap_curves[nu][i] = gap_l2(u_nu, u_e)
                forcing[nu][i] = measured_forcing(u_nu, u_e, nu, cfg.sigma)
    nus = np.array(done)
    sup = np.array([gap_curves[nu].max() for nu in done])
    M = float(np.max(euler.series.f0 + euler.series.g0**2))
    series = GapSeries(
        nu=nus,
        sup_gap=sup,
        M=M,
        theory_exponent=math.exp(-2.0 * M * cfg.horizon),
        fitted_exponent=fit_exponent(nus, sup),
    )
    result = SweepResult(cfg, euler, runs, gap_curves, forcing, series, aborted)
    if cfg.output_dir is not None:
        persist_sweep(result, Path(cfg.output_dir))
    return result


def persist_sweep(result: SweepResult, outdir: Path) -> None:
    """gaps.csv at the root, one subdirectory per run with series and state."""
    outdir.mkdir(parents=True, exist_ok=True)
    rate = verify_rate(result.series) if len(result.series.nu) >= 3 else None
    with open(outdir / "gaps.csv", "w") as fh:
        fh.write(",".join(GAPS_CSV_HEADER) + "\n")
        for i, nu in enumerate(result.series.nu):
            bound = rate.bound_values[i] if rate is not None else float("nan")
            fh.write(
                f"{nu:.17g},{result.series.sup_gap[i]:.17g},{result.series.M:.17g},"
                f"{result.series.theory_exponent:.17g},{bound:.17g}\n"
            )
    write_run(result.euler, outdir / "euler")
    for nu, res in result.runs.items():
        write_run(res, outdir / run_label(nu))


def write_run(res: RunResult, outdir: Path) -> None:
    """series.csv and final_vorticity.csv of one run, in outdir (created if missing)."""
    outdir.mkdir(parents=True, exist_ok=True)
    res.series.write_csv(outdir / "series.csv")
    save_field_csv(res.states[-1].vorticity, outdir / "final_vorticity.csv")


@dataclass(frozen=True)
class RateReport:
    rho: float
    theory_exponent: float
    c_fit: float
    bound_values: np.ndarray
    violations: tuple  # (nu, sup_gap, bound) triples
    passed: bool


def verify_rate(series: GapSeries) -> RateReport:
    """Check sup_gap(nu) <= C * nu^theory_exponent with C anchored at the
    largest nu, and report the fitted power rho next to the theory exponent."""
    nu, sup = np.asarray(series.nu), np.asarray(series.sup_gap)
    if len(nu) < 3:
        raise ValueError("rate fit needs at least 3 viscosity points")
    rho = fit_exponent(nu, sup)
    theta = series.theory_exponent
    i_anchor = int(np.argmax(nu))
    c_fit = sup[i_anchor] / nu[i_anchor] ** theta if sup[i_anchor] > 0 else 1.0
    bounds = c_fit * nu**theta
    bad = tuple(
        (float(nu[i]), float(sup[i]), float(bounds[i]))
        for i in range(len(nu))
        if sup[i] > bounds[i] * (1 + 1e-9)
    )
    return RateReport(
        rho=rho if rho is not None else float("nan"),
        theory_exponent=theta,
        c_fit=float(c_fit),
        bound_values=bounds,
        violations=bad,
        passed=len(bad) == 0,
    )


# ---------------------------------------------------------------------------
# coupling a sweep member to the majorant machinery
# ---------------------------------------------------------------------------


def measured_forcing(u_nu: VectorField, u_euler: VectorField, nu: float, sigma: float) -> float:
    """g at one sample: integral over {alpha > 1/nu} of alpha_r |grad uE|.

    alpha = |u_nu - u_euler|^2 is the squared velocity gap of a paired
    sample; the remainder alpha_r of its truncation split at threshold 1/nu
    is paired with the reference-flow gradient magnitudes.  For resolved
    sweeps the remainder is empty and g vanishes identically.
    """
    cfg = SplitConfig(threshold=max(1.0 / nu, 1.0 + 1e-9), sigma=sigma)
    d1, d2 = u_nu.u1.values - u_euler.u1.values, u_nu.u2.values - u_euler.u2.values
    alpha_vals = d1**2 + d2**2
    if alpha_vals.max() <= cfg.threshold:
        return 0.0
    _, alpha_r = truncate_split(ScalarField(u_nu.grid, alpha_vals), cfg)
    beta = sum(np.abs(c.values) for c in velocity_gradient(u_euler))
    return float(np.sum(np.abs(alpha_r.values) * beta) * u_nu.grid.cell_volume)


def majorant_problem(result: SweepResult, nu: float, c_emp: float) -> OsgoodProblem:
    """Majorant coefficients of the sweep member nu, from measured series.

    f(t) = 2 * c_emp * f0(t) with f0 from the reference run; the forcing g is
    the sweep's measured remainder pairing; g0 adds both runs' gradient L2
    norms.
    """
    euler = result.euler
    f = 2.0 * c_emp * euler.series.f0
    g0 = euler.series.g0 + result.runs[nu].series.g0
    return OsgoodProblem(euler.sample_times, f, result.forcing[nu], g0, nu)


def sweep_majorization(
    result: SweepResult, c_emp: float, tol: float = 0.05
) -> dict[float, MajorizationReport]:
    """check_majorization for every completed sweep member."""
    return {
        nu: check_majorization(
            result.euler.sample_times, gaps**2, majorant_problem(result, nu, c_emp), tol=tol
        )
        for nu, gaps in result.gap_curves.items()
    }


# ---------------------------------------------------------------------------
# per-interval iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalCheck:
    index: int
    t_start: float
    t_end: float
    exponent: float
    results: tuple  # (nu, gap_at_end, bound) triples
    passed: bool


@dataclass(frozen=True)
class IntervalReport:
    partition: tuple[float, ...]
    exponents: tuple[float, ...]
    checks: tuple[IntervalCheck, ...]
    covered: bool
    stalled: bool


def iterate_intervals(
    times: np.ndarray,
    f_coefficient: np.ndarray,
    sigma: float,
    horizon: float,
    gap_curves: dict | None = None,
    min_length: float | None = None,
) -> IntervalReport:
    """Partition [0, horizon] so each piece satisfies 4 * int f < sigma/(4+sigma).

    Interval k (counted from 1) carries the decay exponent
    sigma / ((8 + 2 sigma) * 2**(k-1)): the starting level of each restarted
    majorant is the bound just obtained, which halves the achievable exponent
    at every hand-off.  When measured gap curves are supplied, the gap at
    each partition point is checked against bound = C_k * nu**exponent_k with
    C_k anchored at the largest viscosity.
    """
    times = np.asarray(times, dtype=float)
    f_vals = np.asarray(f_coefficient, dtype=float)
    if times.shape != f_vals.shape or times[0] != 0.0:
        raise ValueError("coefficient samples must start at t = 0")
    if not np.all(np.isfinite(f_vals)):
        raise ValueError("coefficient integral is not finite")
    budget = sigma / (4.0 + sigma) / 4.0
    if min_length is None:
        min_length = max(1e-12 * horizon, float(np.min(np.diff(times))) * 1e-6)
    # cumulative integral of the linear interpolant on a refined mesh
    fine_t = np.union1d(times, np.linspace(0.0, horizon, 4097))
    fine_f = np.interp(fine_t, times, f_vals)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fine_f[1:] + fine_f[:-1]) * np.diff(fine_t))])
    partition = [0.0]
    stalled = False
    while partition[-1] < horizon * (1 - 1e-12):
        start = partition[-1]
        c0 = float(np.interp(start, fine_t, cum))
        target = c0 + budget
        if cum[-1] <= target:
            t_next = horizon
        else:
            t_next = float(np.interp(target, cum, fine_t))
        if t_next - start < min_length:
            stalled = True
            break
        partition.append(min(t_next, horizon))
        if len(partition) > 100000:
            stalled = True
            break
    exponents = tuple(
        sigma / ((8.0 + 2.0 * sigma) * 2.0**k) for k in range(len(partition) - 1)
    )
    checks = []
    if gap_curves:
        nus = sorted(gap_curves.keys(), reverse=True)
        nu_anchor = nus[0]
        for k in range(len(partition) - 1):
            t_end = partition[k + 1]
            expo = exponents[k]
            gap_anchor = float(np.interp(t_end, times, gap_curves[nu_anchor]))
            c_k = gap_anchor / nu_anchor**expo if gap_anchor > 0 else 0.0
            rows = []
            ok = True
            for nu in nus:
                gap_end = float(np.interp(t_end, times, gap_curves[nu]))
                bound = c_k * nu**expo
                rows.append((nu, gap_end, bound))
                if gap_end > bound * (1 + 1e-9) + 1e-300:
                    ok = False
            checks.append(IntervalCheck(k + 1, partition[k], t_end, expo, tuple(rows), ok))
    return IntervalReport(
        partition=tuple(partition),
        exponents=exponents,
        checks=tuple(checks),
        covered=not stalled and abs(partition[-1] - horizon) <= 1e-9 * max(1.0, horizon),
        stalled=stalled,
    )
