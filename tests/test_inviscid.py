"""Viscosity sweeps, rate fitting, majorization coupling, interval iteration."""

import math

import numpy as np
import pytest

from loglimit.inviscid import (
    ExperimentConfig,
    GapSeries,
    fit_exponent,
    initial_condition,
    iterate_intervals,
    majorant_problem,
    measured_forcing,
    run_sweep,
    sweep_majorization,
    verify_rate,
)
from loglimit.flow import SolverConfig, run, taylor_green_velocity
from loglimit.grid import GridSpec
from loglimit.osgood import check_majorization


def closed_form_tg_slope(nu_list, T):
    """Least-squares slope of ln(pi sqrt2 (1 - exp(-2 nu T))) vs ln nu."""
    nu = np.asarray(nu_list)
    sup = math.pi * math.sqrt(2.0) * (1.0 - np.exp(-2.0 * nu * T))
    return float(np.polyfit(np.log(nu), np.log(sup), 1)[0])


class TestConfig:
    def test_nu_list_must_decrease(self):
        with pytest.raises(ValueError):
            ExperimentConfig(32, 0.5, nu_list=(1e-3, 1e-2))

    def test_colliding_run_labels_rejected(self, tmp_path):
        # both viscosities round to nu_1.2e-03; the second run would
        # overwrite the first one's directory
        with pytest.raises(ValueError, match="collide"):
            ExperimentConfig(32, 0.5, nu_list=(1.24e-3, 1.23e-3), output_dir=str(tmp_path))
        ExperimentConfig(32, 0.5, nu_list=(1.24e-3, 1.23e-3))  # nothing written, no collision

    def test_nu_must_be_below_one(self):
        with pytest.raises(ValueError):
            ExperimentConfig(32, 0.5, nu_list=(2.0, 1e-2))

    def test_unknown_ic_rejected(self):
        with pytest.raises(ValueError, match="unknown initial"):
            initial_condition(GridSpec(32), "nonsense")


@pytest.fixture(scope="module")
def tg_sweep():
    cfg = ExperimentConfig(
        grid_points=32,
        horizon=0.5,
        nu_list=(1e-1, 1e-2, 1e-3),
        initial_condition_id="taylor_green",
        min_samples=50,
    )
    return run_sweep(cfg, compute_norms=True)


class TestRunSweep:
    def test_sup_gap_matches_closed_form(self, tg_sweep):
        T = tg_sweep.config.horizon
        for nu, sup in zip(tg_sweep.series.nu, tg_sweep.series.sup_gap):
            expected = math.pi * math.sqrt(2.0) * (1 - math.exp(-2 * nu * T))
            assert sup == pytest.approx(expected, rel=1e-6)

    def test_fitted_exponent_matches_oracle(self, tg_sweep):
        oracle = closed_form_tg_slope(tg_sweep.series.nu, tg_sweep.config.horizon)
        assert tg_sweep.series.fitted_exponent == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(1.0, abs=0.02)

    def test_monotone_in_nu(self, tg_sweep):
        assert tg_sweep.series.monotone

    def test_exponent_ordering(self, tg_sweep):
        # the theoretical rate is conservative: fitted rho >= exp(-2MT) - 0.05,
        # and a positive rho extrapolates the gap to zero with the viscosity
        s = tg_sweep.series
        assert s.fitted_exponent >= s.theory_exponent - 0.05
        assert s.fitted_exponent > 0

    def test_pairing_lockstep(self, tg_sweep):
        for res in tg_sweep.runs.values():
            assert np.array_equal(res.sample_times, tg_sweep.euler.sample_times)

    def test_zero_initial_data_all_gaps_zero(self):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2),
            initial_condition_id="zero", min_samples=10,
        )
        result = run_sweep(cfg, compute_norms=False)
        assert np.all(result.series.sup_gap == 0.0)
        assert result.series.fitted_exponent is None

    def test_persistence(self, tmp_path):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
            initial_condition_id="taylor_green", min_samples=10,
            output_dir=str(tmp_path / "out"),
        )
        run_sweep(cfg, compute_norms=False)
        gaps = (tmp_path / "out" / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "nu,sup_gap,M,theory_exponent,bound_value"
        assert len(gaps) == 4
        assert (tmp_path / "out" / "euler" / "series.csv").exists()
        assert (tmp_path / "out" / "nu_1.0e-01" / "final_vorticity.csv").exists()


class TestVerifyRate:
    def _series(self, nu, sup, theory):
        return GapSeries(
            nu=np.asarray(nu, dtype=float),
            sup_gap=np.asarray(sup, dtype=float),
            M=1.0,
            theory_exponent=theory,
            fitted_exponent=fit_exponent(np.asarray(nu, float), np.asarray(sup, float)),
        )

    def test_exact_linear_series(self):
        nu = [1e-1, 1e-2, 1e-3]
        series = self._series(nu, nu, theory=0.5)
        report = verify_rate(series)
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert report.passed

    def test_negative_control(self):
        nu = np.array([1e-1, 1e-2, 1e-3])
        sup = nu**0.2
        ok = verify_rate(self._series(nu, sup, theory=0.135))
        assert ok.passed
        bad = verify_rate(self._series(nu, sup, theory=0.3))
        assert not bad.passed
        assert len(bad.violations) > 0

    def test_refuses_short_series(self):
        with pytest.raises(ValueError, match="3"):
            verify_rate(self._series([1e-1, 1e-2], [0.1, 0.01], theory=0.5))


class TestMajorization:
    def test_taylor_green_sweep_majorized(self):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.5, nu_list=(1e-1, 1e-2),
            initial_condition_id="taylor_green", min_samples=50,
        )
        result = run_sweep(cfg, compute_norms=True)
        reports = sweep_majorization(result, c_emp=1.0)
        assert set(reports) == {1e-1, 1e-2}
        for rep in reports.values():
            assert rep.passed

    def test_majorant_problem_coefficients(self):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.3, nu_list=(1e-1,),
            initial_condition_id="taylor_green", min_samples=20,
        )
        result = run_sweep(cfg, compute_norms=True)
        p = majorant_problem(result.runs[1e-1], result.euler, 1e-1, c_emp=2.0, sigma=1.0)
        assert np.array_equal(p.times, result.euler.sample_times)
        assert np.all(p.f == 4.0 * result.euler.series.f0)
        assert np.all(p.g == 0.0)  # gaps never exceed 1/nu here
        assert p.nu == 1e-1

    def test_measured_forcing_requires_shared_sample_times(self):
        grid = GridSpec(32)
        u = taylor_green_velocity(grid)
        res_e = run(u, SolverConfig(grid=grid, nu=0.0, horizon=0.5, min_samples=10),
                    compute_norms=False)
        res_n = run(u, SolverConfig(grid=grid, nu=0.1, horizon=0.5, min_samples=11),
                    compute_norms=False)
        with pytest.raises(ValueError, match="sample times"):
            measured_forcing(res_n, res_e, 0.1, sigma=1.0)


class TestIterateIntervals:
    def test_zero_coefficient_single_interval(self):
        t = np.linspace(0, 0.5, 11)
        report = iterate_intervals(t, np.zeros_like(t), sigma=1.0, horizon=0.5)
        assert report.partition == (0.0, 0.5)
        assert report.exponents == (1.0 / 10.0,)
        assert report.covered

    def test_constant_coefficient_closed_form(self):
        # 4 M t1 = sigma/(4+sigma) with sigma = 1: t1 = 1/(20 M)
        M, sigma, T = 2.0, 1.0, 0.5
        t = np.linspace(0, T, 101)
        report = iterate_intervals(t, M * np.ones_like(t), sigma=sigma, horizon=T)
        t1 = 1.0 / (20.0 * M)
        assert report.partition[1] == pytest.approx(t1, rel=1e-6)
        assert len(report.partition) - 1 == math.ceil(T / t1)
        assert report.covered
        # exponents halve interval by interval
        assert report.exponents[0] == pytest.approx(sigma / (8 + 2 * sigma))
        assert report.exponents[1] == pytest.approx(sigma / (16 + 4 * sigma))

    def test_taylor_green_interval_checks_pass(self):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.5, nu_list=(1e-1, 1e-2, 1e-3),
            initial_condition_id="taylor_green", min_samples=50,
        )
        result = run_sweep(cfg, compute_norms=True)
        report = iterate_intervals(
            result.euler.sample_times,
            2.0 * result.euler.series.f0,
            sigma=1.0,
            horizon=cfg.horizon,
            gap_curves=result.gap_curves,
        )
        assert report.covered
        assert len(report.checks) == len(report.partition) - 1
        assert all(c.passed for c in report.checks)

    def test_stall_reported(self):
        t = np.linspace(0, 1.0, 11)
        huge = 1e9 * np.ones_like(t)
        report = iterate_intervals(t, huge, sigma=1.0, horizon=1.0, min_length=1e-3)
        assert report.stalled
        assert not report.covered

    def test_infinite_coefficient_rejected(self):
        t = np.linspace(0, 1.0, 11)
        f = np.ones_like(t)
        f[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            iterate_intervals(t, f, sigma=1.0, horizon=1.0)


class TestCrossModule:
    def test_random_seed_sweep_below_measured_envelope(self):
        # gaps positive and monotone, and every squared gap sits below the
        # closed-form envelope evaluated with the measured coefficients
        from loglimit.osgood import log_gronwall_bound

        cfg = ExperimentConfig(
            grid_points=32, horizon=0.5, nu_list=(1e-1, 1e-2),
            initial_condition_id="random_42", min_samples=50,
        )
        result = run_sweep(cfg, compute_norms=True)
        assert np.all(result.series.sup_gap > 0)
        assert result.series.monotone
        for nu in cfg.nu_list:
            p = majorant_problem(result.runs[nu], result.euler, nu, c_emp=1.0, sigma=1.0)
            gaps_sq = result.gap_curves[nu] ** 2
            for t, x in zip(result.euler.sample_times[1:], gaps_sq[1:]):
                assert math.log(max(x, 1e-300)) <= log_gronwall_bound(p, float(t))

    def test_measured_majorant_dominates_taylor_green_square_gap(self):
        # direct check_majorization call with measured coefficients
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.4, nu_list=(5e-2,),
            initial_condition_id="taylor_green", min_samples=40,
        )
        result = run_sweep(cfg, compute_norms=True)
        nu = 5e-2
        p = majorant_problem(result.runs[nu], result.euler, nu, c_emp=1.0, sigma=1.0)
        x_sq = result.gap_curves[nu] ** 2
        report = check_majorization(result.euler.sample_times, x_sq, p, tol=0.05)
        assert report.passed
