"""Viscosity sweeps: gap measurement, rate fitting and majorant comparison.

A sweep pairs one zero-viscosity reference run with one run per viscosity on
identical sample times.  The regularity level M = sup_t (f0 + g0^2) is
measured from the reference run, and the theoretical decay exponent of the
gap is exp(-2 M T); the empirical exponent is the least-squares slope of
log sup-gap against log viscosity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import flow
from .flow import (
    FlowState,
    RunResult,
    SolverConfig,
    _gap_state,
    _state_gradient,
    gap_l2,
    random_band_velocity,
    require_shared_sample_times,
    run,
    sup_gap_sq_bound,
    taylor_green_velocity,
    two_mode_velocity,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _call,
    _map_tasks,
    read_csv,
    save_field_csv,
    write_csv,
)
from .osgood import MajorizationReport, OsgoodProblem, check_majorization
from .splitting import SplitConfig, truncation_remainder

GAPS_CSV_HEADER = ("nu", "sup_gap", "M", "theory_exponent", "bound_value")


def initial_condition(grid: GridSpec, ic_id: str) -> VectorField:
    if ic_id == "taylor_green":
        return taylor_green_velocity(grid)
    if ic_id == "two_mode":
        return two_mode_velocity(grid)
    seed = ic_id.removeprefix("random_")
    if ic_id.startswith("random_") and seed.isdecimal():
        return random_band_velocity(grid, seed=int(seed))
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
    initial_condition_id: str = "taylor_green"
    min_samples: int = 100
    output_dir: str | None = None

    def __post_init__(self) -> None:
        nus = tuple(float(v) for v in self.nu_list)
        object.__setattr__(self, "nu_list", nus)
        if len(nus) == 0 or not all(0 < v < 1 for v in nus):  # nan fails too
            raise ValueError("nu_list entries must lie in (0, 1)")
        if any(a <= b for a, b in zip(nus, nus[1:])):
            raise ValueError("nu_list must be strictly decreasing")
        labels = [run_label(nu) for nu in nus]
        if self.output_dir is not None and len(set(labels)) < len(labels):
            raise ValueError(f"viscosities {nus} collide on run directory names {labels}")
        self.solver_config(nus[0])  # the solver's settings fail here, before any run

    def solver_config(self, nu: float) -> SolverConfig:
        return SolverConfig(
            grid=GridSpec(self.grid_points),
            nu=nu,
            horizon=self.horizon,
            min_samples=self.min_samples,
        )


@dataclass(frozen=True)
class GapSeries:
    """Measured sup-gaps across a viscosity sweep plus the rate ingredients.

    Checked where it is built, by run_sweep and load_gap_series alike: nu
    lies in (0, 1) and strictly decreases, each nu has one finite sup gap
    >= 0, M is finite and >= 0, and the theory exponent lies in [0, 1] (it
    is 0.0 once exp(-2 M T) underflows).  An empty series, left by a sweep
    whose first viscous run blew up, is valid.  The fitted exponent is
    derived from the series' own points (fit_exponent)."""

    nu: np.ndarray
    sup_gap: np.ndarray
    M: float
    theory_exponent: float
    fitted_exponent: float | None = field(init=False)

    def __post_init__(self) -> None:
        # written so that nan fails each test, as it fails every comparison
        nu = np.asarray(self.nu, dtype=float)
        sup = np.asarray(self.sup_gap, dtype=float)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "sup_gap", sup)
        if nu.ndim != 1 or not np.all((0 < nu) & (nu < 1)) or np.any(np.diff(nu) >= 0):
            raise ValueError(f"gap series nu must lie in (0, 1) and strictly decrease, got {nu}")
        if sup.shape != nu.shape or not np.all((0 <= sup) & (sup < math.inf)):
            raise ValueError(f"gap series needs one finite sup gap >= 0 per nu, got {sup}")
        if not 0 <= self.M < math.inf:
            raise ValueError(f"gap series M must be finite and nonnegative, got {self.M}")
        if not 0 <= self.theory_exponent <= 1:
            raise ValueError(f"theory exponent must lie in [0, 1], got {self.theory_exponent}")
        object.__setattr__(self, "fitted_exponent", fit_exponent(nu, sup))

    @property
    def monotone(self) -> bool:
        # nu is stored decreasing; gaps should not increase as nu shrinks
        return bool(np.all(np.diff(self.sup_gap) <= 1e-12 + 1e-6 * self.sup_gap[:-1]))


@dataclass(frozen=True)
class SweepResult:
    """`runs` holds the viscous runs up to the first that blew up, that one
    included (then `aborted` is set); the paired quantities cover completed
    runs."""

    config: ExperimentConfig
    euler: RunResult
    runs: dict  # nu -> RunResult
    gap_curves: dict  # nu -> np.ndarray of gap(t) at sample times
    forcing: dict  # nu -> np.ndarray of measured_forcing at sample times
    series: GapSeries
    aborted: bool = False


def fit_exponent(x, y) -> float | None:
    """Least-squares slope of log y against log x over the points with y > 0
    (None below 2 such points): log sup-gap against log nu for a sweep."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    keep = y > 0
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def _sweep_member(cfg: ExperimentConfig, u0: VectorField, nu: float) -> RunResult:
    """The sweep's run from u0 at nu (0.0 for the reference), without f0; a
    blown reference raises."""
    res = run(u0, cfg.solver_config(nu))
    if nu == 0.0 and res.blow_up:
        raise RuntimeError("reference run blew up; sweep aborted")
    return res


def _paired_member(cfg: ExperimentConfig, u0: VectorField, nu: float, euler: RunResult) -> tuple:
    """The viscous run from u0 at nu and its pairing with the reference run."""
    res = _sweep_member(cfg, u0, nu)
    return res, _pairing(res, euler, nu)


def _pairing(res: RunResult, euler: RunResult, nu: float) -> tuple | None:
    """(gap curve, forcing) of the viscous run at nu against the reference,
    sample by sample from the paired states' mode vectors; None for a blown
    run."""
    if res.blow_up:
        return None
    pairs = list(zip(res.states, euler.states))
    return (np.array([gap_l2(s, e) for s, e in pairs]),
            np.array([measured_forcing(s, e, nu) for s, e in pairs]))


def run_sweep(cfg: ExperimentConfig, compute_norms: bool = True) -> SweepResult:
    """One reference run plus one viscous run per nu, paired sample by sample.

    The initial condition is built once, here, and two calls of the
    parallel map (_map_tasks) do the work.  The first runs the reference in
    this process beside the largest nu's run, neither with f0; a blown
    reference raises there.  The second forks once the reference states
    exist, so its children read them and the initial condition without a
    copy being sent; its tasks, longest first, are the other viscous runs,
    each of which records its gap curve (gap_l2) and forcing
    (measured_forcing) against the reference, the same pairing of the
    largest nu's run, and, with compute_norms, one f0 scan
    (flow.gradient_bmo) per reference sample.  Gaps and forcing come from
    the paired states' mode vectors; a velocity is derived only where the
    forcing's bound fails.

    The sweep keeps the viscous runs up to and including the first that
    blows up, and then sets `aborted`; the runs after it may have been
    computed too, and their results are discarded.  If tasks raise, the
    caller gets the first error in task order, whatever the number of
    processes: the reference run's, else that of the largest nu whose run
    raised, else that of an f0 scan.  Runs sampled at other times than the
    reference raise too.

    The regularity series f0 is scanned on the reference run only (that is
    where M and the majorant coefficient come from) and set with
    RunResult.with_f0; a viscous run's f0 stays 0.0, as only its g0 series
    enters any downstream check, and so does the reference's without
    compute_norms.
    """
    first_nu, *later_nus = cfg.nu_list
    u0 = initial_condition(GridSpec(cfg.grid_points), cfg.initial_condition_id)
    euler, first = _map_tasks(_sweep_member, [(cfg, u0, 0.0), (cfg, u0, first_nu)])
    if first.blow_up:
        later_nus = []
    tasks = [(_paired_member, cfg, u0, nu, euler) for nu in later_nus]
    tasks.append((_pairing, first, euler, first_nu))
    if compute_norms:
        tasks += [(flow.gradient_bmo, state) for state in euler.states]
    done = _map_tasks(_call, tasks)
    k = len(later_nus)
    later, first_pairing, f0 = done[:k], done[k], done[k + 1:]
    if compute_norms:
        euler = euler.with_f0(f0)
    runs, gap_curves, forcing = {}, {}, {}
    for nu, (res, pairing) in zip(cfg.nu_list, [(first, first_pairing), *later]):
        runs[nu] = res
        if res.blow_up:
            break
        gap_curves[nu], forcing[nu] = pairing
    require_shared_sample_times(euler, *(runs[nu] for nu in gap_curves))
    nus = np.array(list(gap_curves))
    sup = np.array([curve.max() for curve in gap_curves.values()])
    M = float(np.max(euler.series.f0 + euler.series.g0**2))
    series = GapSeries(nu=nus, sup_gap=sup, M=M, theory_exponent=math.exp(-2.0 * M * cfg.horizon))
    aborted = len(gap_curves) < len(runs)
    result = SweepResult(cfg, euler, runs, gap_curves, forcing, series, aborted)
    if cfg.output_dir is not None:
        persist_sweep(result, Path(cfg.output_dir))
    return result


def persist_sweep(result: SweepResult, outdir: Path) -> None:
    """gaps.csv at the root, one subdirectory per run with series and state:
    the one writer of a sweep's files.  The 1 + K runs' files are written
    side by side (_map_tasks)."""
    outdir.mkdir(parents=True, exist_ok=True)
    series = result.series
    n = len(series.nu)
    bounds = verify_rate(series).bound_values if n >= 3 else [float("nan")] * n
    write_csv(outdir / "gaps.csv", GAPS_CSV_HEADER, (
        (nu, sup, series.M, series.theory_exponent, bound)
        for nu, sup, bound in zip(series.nu, series.sup_gap, bounds)
    ))
    _map_tasks(write_run, [(result.euler, outdir / "euler")]
               + [(res, outdir / run_label(nu)) for nu, res in result.runs.items()])


def load_gap_series(path: str | Path) -> GapSeries:
    """The GapSeries of a gaps.csv that persist_sweep wrote, rows in any nu
    order; every row must carry the same M and theory exponent."""
    rows = read_csv(path, GAPS_CSV_HEADER)
    nu, sup, M, theta, _ = rows[np.argsort(rows[:, 0])[::-1]].T
    for name, column in (("M", M), ("theory_exponent", theta)):
        if len(np.unique(column)) > 1:
            raise ValueError(f"the rows of {path} disagree on {name}: {np.unique(column)}")
    return GapSeries(nu=nu, sup_gap=sup, M=float(M[0]), theory_exponent=float(theta[0]))


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
    nu, sup = series.nu, series.sup_gap
    if len(nu) < 3:
        raise ValueError("rate fit needs at least 3 viscosity points")
    rho = series.fitted_exponent
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


def measured_forcing(state_nu: FlowState, state_euler: FlowState, nu: float) -> float:
    """g at one sample: integral over {alpha > 1/nu} of alpha_r |grad uE|.

    alpha = |u_nu - u_euler|^2 is the squared velocity gap of a paired
    sample, the squared velocity of its gap state (flow._gap_state); the
    remainder alpha_r of its truncation split at threshold 1/nu is paired
    with the reference-flow gradient magnitudes.  For resolved sweeps the
    remainder is empty and g vanishes identically: when sup_gap_sq_bound,
    which bounds the computed max alpha from the mode vectors, is at most
    the threshold, g is 0.0 and no velocity is derived.
    """
    cfg = SplitConfig(threshold=max(1.0 / nu, 1.0 + 1e-9))
    if sup_gap_sq_bound(state_nu, state_euler) <= cfg.threshold:
        return 0.0
    w = _gap_state(state_nu, state_euler).velocity
    alpha_vals = w.u1.values**2 + w.u2.values**2
    if alpha_vals.max() <= cfg.threshold:
        return 0.0
    alpha_r = truncation_remainder(ScalarField(w.grid, alpha_vals), cfg)
    d1u1, d2u1, d1u2 = (c.values for c in _state_gradient(state_euler))
    beta = 2.0 * np.abs(d1u1) + np.abs(d2u1) + np.abs(d1u2)  # |d2 u2| = |d1 u1|
    return float(np.sum(np.abs(alpha_r.values) * beta) * w.grid.cell_volume)


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
    """check_majorization for every completed sweep member, side by side
    (_map_tasks); when checks raise, the first in nu order reaches the
    caller."""
    nus = list(result.gap_curves)
    return dict(zip(nus, _map_tasks(_majorization, [(result, nu, c_emp, tol) for nu in nus])))


def _majorization(result: SweepResult, nu: float, c_emp: float, tol: float) -> MajorizationReport:
    return check_majorization(
        result.euler.sample_times, result.gap_curves[nu] ** 2,
        majorant_problem(result, nu, c_emp), tol=tol
    )
