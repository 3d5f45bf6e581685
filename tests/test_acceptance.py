"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are implemented faithfully but are expected to fail and are
marked strict-xfail with the measured numbers in the reason:

* the Riesz-L1 growth-rate match for the unit-mass indicator family (the
  measured per-axis log-slope is ~0.36, close to the kernel value 1/pi, not
  within 20 percent of the Zygmund functional's slope 1.0 - the L1 bound is
  one-sided and nothing ties the two growth constants together), and
* the closed-form envelope prefactor <= 4 across the constant-coefficient
  grid (at M = 2, nu = 1e-2, T = 1 the majorant overshoots 1/nu, the
  |ln y| <= ln(1/nu) premise fails, and the minimal prefactor is ~7.23,
  consistent with the exp(int f) = e^2 factor the closed form drops).
"""

import math
import time

import numpy as np
import pytest

from loglimit.flow import (
    SolverConfig,
    energy_identity_terms,
    run,
    taylor_green_velocity,
)
from loglimit.grid import GridSpec, ScalarField, riesz_transform
from loglimit.inviscid import (
    ExperimentConfig,
    run_sweep,
    sweep_majorization,
    verify_rate,
)
from loglimit.logineq import make_corpus, scan_corpus, zygmund_family_scan
from loglimit.osgood import (
    OsgoodProblem,
    integrate_majorant,
    log_gronwall_bound,
    rate_exponent,
)
from loglimit.splitting import threshold_sweep
from reference import random_band_limited
from test_osgood import separable_oracle

SWEEP_IC_IDS = ("taylor_green", "two_mode", "random_42")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def report_timing(criterion: int, seconds: float, bound: float) -> None:
    """Wall-clock seconds go on their own line, so ACCEPTANCE lines are byte-stable."""
    print(f"TIMING {criterion}: {seconds:.1f}s (bound {bound:.0f}s)")


@pytest.fixture(scope="module")
def corpus_scan_full():
    t0 = time.monotonic()
    scan = scan_corpus(sizes=(32, 64, 128))
    return scan, time.monotonic() - t0


@pytest.fixture(scope="module")
def sweeps():
    """Criterion 7 configuration, shared by criteria 7, 8, and 10."""
    results = {}
    t0 = time.monotonic()
    for ic in SWEEP_IC_IDS:
        cfg = ExperimentConfig(
            grid_points=64,
            horizon=0.5,
            nu_list=(1e-1, 1e-2, 1e-3, 1e-4),
            initial_condition_id=ic,
            min_samples=100,
        )
        results[ic] = run_sweep(cfg, compute_norms=True)
    return results, time.monotonic() - t0


def test_acceptance_01_main_inequality(corpus_scan_full):
    scan, elapsed = corpus_scan_full
    ok = math.isfinite(scan.max_ratio) and scan.max_ratio > 0
    slope = scan.ratio_slope
    ok = ok and slope is not None and slope <= 0.05
    ok = ok and elapsed <= 120.0
    report("1 main inequality", ok, f"max ratio {scan.max_ratio:.4f}, log-slope {slope:.2e}")
    report_timing(1, elapsed, 120.0)
    assert math.isfinite(scan.max_ratio)
    assert slope <= 0.05
    assert elapsed <= 120.0


def test_acceptance_02_zygmund_bound_dominates():
    t0 = time.monotonic()
    scan = zygmund_family_scan(GridSpec(256))
    elapsed = time.monotonic() - t0
    dominated = all(max(t.riesz_l1) <= t.bound * (1 + 1e-12) for t in scan["trials"])
    ok = dominated and elapsed <= 60.0
    report("2 zygmund domination", ok, f"corpus constant {scan['c0']:.4f}")
    report_timing(2, elapsed, 60.0)
    assert dominated
    assert elapsed <= 60.0


@pytest.mark.xfail(
    strict=True,
    reason="measured per-axis log-slope of ||R_k h||_L1 is ~0.36 (kernel value "
    "1/pi plus finite-size effects) versus the Zygmund functional's slope 1.0; "
    "a 20 percent match is unattainable because the L1 bound is one-sided",
)
def test_acceptance_02_zygmund_growth_match():
    scan = zygmund_family_scan(GridSpec(256))
    ok = all(
        abs(scan["riesz_slopes"][axis] - scan["slope_llogl"]) <= 0.2 * scan["slope_llogl"]
        for axis in (1, 2)
    )
    report(
        "2 zygmund growth match",
        ok,
        f"riesz slopes {scan['riesz_slopes']}, llogl slope {scan['slope_llogl']:.4f}",
    )
    for axis in (1, 2):
        assert abs(scan["riesz_slopes"][axis] - scan["slope_llogl"]) <= 0.2 * scan["slope_llogl"]


def test_acceptance_03_riesz_identity():
    grid = GridSpec(64)
    worst = 0.0
    for seed in range(50):
        vals = random_band_limited(64, 8, seed=seed)
        f = ScalarField(grid, vals)
        total = sum(riesz_transform(riesz_transform(f, k), k).values for k in (1, 2))
        target = -(vals - vals.mean())
        worst = max(worst, np.linalg.norm(total - target) / np.linalg.norm(target))
    ok = worst <= 1e-10
    report("3 riesz identity", ok, f"worst relative L2 error {worst:.2e} over 50 fields")
    assert worst <= 1e-10


OSGOOD_GRID = [(M, nu) for M in (0.5, 1.0, 2.0) for nu in (1e-2, 1e-3)]


def test_acceptance_04_osgood_oracle_match():
    worst = 0.0
    for M, nu in OSGOOD_GRID:
        p = OsgoodProblem.constant(M, nu, 1.0)
        y_T = math.exp(integrate_majorant(p).log_y[-1])
        oracle = separable_oracle(M, nu, 1.0)
        worst = max(worst, abs(y_T - oracle) / oracle)
    ok = worst <= 1e-6
    report("4 osgood oracle", ok, f"worst relative mismatch {worst:.2e} over 6 problems")
    assert worst <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="at M = 2, nu = 1e-2, T = 1 the fitted envelope prefactor is ~7.23 > 4: "
    "the majorant passes 1/nu (breaking the |ln y| <= ln(1/nu) step) and the "
    "closed form drops a factor exp(int f) = e^2 ~ 7.39",
)
def test_acceptance_04_osgood_envelope_prefactor():
    prefactors = {}
    for M, nu in OSGOOD_GRID:
        p = OsgoodProblem.constant(M, nu, 1.0)
        traj = integrate_majorant(p)
        excess = max(
            ly - log_gronwall_bound(p, t) for t, ly in zip(traj.times, traj.log_y)
        )
        prefactors[(M, nu)] = math.exp(excess)
    worst = max(prefactors.values())
    report("4 osgood envelope prefactor", worst <= 4.0, f"prefactors {prefactors}")
    assert worst <= 4.0


def test_acceptance_05_rate_formula():
    n_sweep = (10, 100, 1000, 10**4, 10**5, 10**6)
    details = []
    ok = True
    for M, T in ((1.0, 1.0), (2.0, 0.5)):
        rb = rate_exponent(M, T, n_values=n_sweep)
        ok = ok and rb.monotone
        ok = ok and abs(rb.extrapolated - rb.exponent) <= 1e-8
        details.append(f"(M={M},T={T}): extrapolation error {abs(rb.extrapolated - rb.exponent):.1e}")
    anchor = rate_exponent(1.0, 1.0).exponent
    ok = ok and abs(anchor - 0.135335) <= 1e-6
    report("5 rate formula", ok, "; ".join(details) + f"; anchor {anchor:.6f}")
    assert ok


def test_acceptance_06_taylor_green_anchors():
    t0 = time.monotonic()
    grid = GridSpec(64)
    u0 = taylor_green_velocity(grid)

    # (a) inviscid steady state over T = 1
    res_e = run(u0, SolverConfig(grid=grid, nu=0.0, horizon=1.0, min_samples=100))
    drift = max(
        np.linalg.norm(s.velocity.u1.values - u0.u1.values)
        / np.linalg.norm(u0.u1.values)
        for s in res_e.states
    )

    # (b) viscous decay exp(-2 nu t) at nu = 1e-2
    nu_b = 1e-2
    res_n = run(u0, SolverConfig(grid=grid, nu=nu_b, horizon=1.0, min_samples=100))
    decay_err = 0.0
    for s in res_n.states:
        expected = math.exp(-2 * nu_b * s.time) * u0.u1.values
        decay_err = max(
            decay_err, np.linalg.norm(s.velocity.u1.values - expected) / np.linalg.norm(expected)
        )

    # (c) sweep gaps against the closed form, fitted exponent 1.00 +- 0.02
    T = 0.5
    cfg = ExperimentConfig(
        grid_points=64, horizon=T, nu_list=(1e-1, 1e-2, 1e-3),
        initial_condition_id="taylor_green", min_samples=100,
    )
    sweep = run_sweep(cfg, compute_norms=False)
    gap_err = 0.0
    for nu, sup in zip(sweep.series.nu, sweep.series.sup_gap):
        exact = math.pi * math.sqrt(2.0) * (1 - math.exp(-2 * nu * T))
        gap_err = max(gap_err, abs(sup - exact) / exact)
    rho = sweep.series.fitted_exponent
    elapsed = time.monotonic() - t0

    ok = drift <= 1e-8 and decay_err <= 1e-6 and gap_err <= 1e-2
    ok = ok and abs(rho - 1.0) <= 0.02 and elapsed <= 300.0
    report(
        "6 taylor-green anchors",
        ok,
        f"steady drift {drift:.1e}, decay error {decay_err:.1e}, "
        f"gap error {gap_err:.1e}, rho {rho:.4f}",
    )
    report_timing(6, elapsed, 300.0)
    assert drift <= 1e-8
    assert decay_err <= 1e-6
    assert gap_err <= 1e-2
    assert abs(rho - 1.0) <= 0.02
    assert elapsed <= 300.0


def test_acceptance_07_rate_bound_sweeps(sweeps):
    results, elapsed = sweeps
    ok = True
    details = []
    for ic in SWEEP_IC_IDS:
        series = results[ic].series
        rate = verify_rate(series)
        ok = ok and rate.passed and series.monotone and not results[ic].aborted
        details.append(
            f"{ic}: M={series.M:.1f}, rho={rate.rho:.3f}, violations={len(rate.violations)}"
        )
    ok = ok and elapsed <= 900.0
    report("7 rate bound", ok, "; ".join(details))
    report_timing(7, elapsed, 900.0)
    for ic in SWEEP_IC_IDS:
        rate = verify_rate(results[ic].series)
        assert rate.passed, f"{ic}: rate bound violated at {rate.violations}"
        assert results[ic].series.monotone
    assert elapsed <= 900.0


def test_acceptance_08_splitting_chain(sweeps):
    results, _ = sweeps
    grid = GridSpec(64)
    fields = [(fid, fld) for fid, _, fld in make_corpus(grid)]
    # solver-produced squared-gap snapshots
    for ic in ("taylor_green", "random_42"):
        sweep = results[ic]
        for nu in (1e-1, 1e-2):
            run_nu = sweep.runs[nu]
            for idx in (len(run_nu.states) // 2, len(run_nu.states) - 1):
                un = run_nu.states[idx].velocity
                ue = sweep.euler.states[idx].velocity
                alpha = (un.u1.values - ue.u1.values) ** 2 + (un.u2.values - ue.u2.values) ** 2
                fields.append((f"{ic}_nu{nu:.0e}_s{idx}", ScalarField(grid, alpha)))
    bad = []
    for fid, fld in fields:
        top = max(2.0, 2.0 * float(np.abs(fld.values).max()))
        rows = threshold_sweep(fld, 1.0, np.geomspace(1.01, top, 20))
        if not all(r["satisfied"] == 1.0 for r in rows):
            bad.append(fid)
    ok = not bad
    report("8 splitting chain", ok, f"{len(fields)} fields x 20 thresholds, failures: {bad}")
    assert not bad


def test_acceptance_09_energy_identity():
    grid = GridSpec(64)
    nu, T = 0.5, 1.0

    def residual_at(dt):
        u = taylor_green_velocity(grid)
        samples = int(round(T / dt))
        res_e = run(u, SolverConfig(grid=grid, nu=0.0, horizon=T, min_samples=samples))
        res_n = run(u, SolverConfig(grid=grid, nu=nu, horizon=T, min_samples=samples))
        terms = energy_identity_terms(res_n, res_e)
        return float(np.abs(terms.residual).max()), terms.largest_term

    r_coarse, largest = residual_at(0.02)
    r_fine, _ = residual_at(0.01)
    ratio = r_coarse / r_fine
    ok = r_coarse <= 0.01 * largest and ratio >= 8.0
    report(
        "9 energy identity",
        ok,
        f"residual/largest {r_coarse / largest:.2e}, halving ratio {ratio:.1f}",
    )
    assert r_coarse <= 0.01 * largest
    assert ratio >= 8.0


def test_acceptance_10_majorization(sweeps, corpus_scan_full):
    results, _ = sweeps
    c_emp = corpus_scan_full[0].max_ratio_by_size[64]
    ok = True
    details = []
    for ic in SWEEP_IC_IDS:
        reports = sweep_majorization(results[ic], c_emp=c_emp, tol=0.05)
        passed = all(rep.passed for rep in reports.values())
        ok = ok and passed and len(reports) == 4
        details.append(f"{ic}: {sum(r.passed for r in reports.values())}/4")
    report("10 majorization", ok, f"empirical constant {c_emp:.3f}; " + "; ".join(details))
    assert ok
