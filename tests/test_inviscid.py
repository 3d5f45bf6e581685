"""Viscosity sweeps, rate fitting, majorization coupling, interval iteration."""

import dataclasses
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
    run_sweep,
    sweep_majorization,
    verify_rate,
)
from loglimit import inviscid
from loglimit.flow import FlowState, run
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

    @pytest.mark.parametrize("blown", [0, 1])
    def test_blow_up_aborts_sweep(self, blown, monkeypatch):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
            initial_condition_id="taylor_green", min_samples=10,
        )
        started = []

        def blowing_run(u0, solver_cfg, compute_norms=True):
            started.append(solver_cfg.nu)
            res = run(u0, solver_cfg, compute_norms=compute_norms)
            if solver_cfg.nu == cfg.nu_list[blown]:
                return dataclasses.replace(res, blow_up=True)
            return res

        monkeypatch.setattr(inviscid, "run", blowing_run)
        result = run_sweep(cfg, compute_norms=False)
        completed = list(cfg.nu_list[:blown])
        assert result.aborted
        assert started == [0.0] + list(cfg.nu_list[: blown + 1])
        assert list(result.runs) == list(cfg.nu_list[: blown + 1])
        assert list(result.gap_curves) == completed
        assert list(result.forcing) == completed
        assert list(result.series.nu) == completed
        assert len(result.series.sup_gap) == blown
        assert list(sweep_majorization(result, c_emp=1.0)) == completed

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
        p = majorant_problem(result, 1e-1, c_emp=2.0)
        assert np.array_equal(p.times, result.euler.sample_times)
        assert np.all(p.f == 4.0 * result.euler.series.f0)
        assert np.all(p.g == 0.0)  # gaps never exceed 1/nu here
        assert p.nu == 1e-1


def forcing_oracle(u_nu, u_e, nu):
    """fsum over cells of max(alpha - 1/nu, 0) * sum_ij |d_i uE_j| * cell volume,
    alpha = |u_nu - u_e|^2, with derivatives from one-dimensional FFTs."""
    n = u_e.grid.points_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)
    beta = np.zeros((n, n))
    for comp in (u_e.u1.values, u_e.u2.values):
        for axis in (0, 1):
            shape = [1, 1]
            shape[axis] = n
            d = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(comp, axis=axis), axis=axis)
            beta += np.abs(d.real)
    alpha = (u_nu.u1.values - u_e.u1.values) ** 2 + (u_nu.u2.values - u_e.u2.values) ** 2
    excess = np.maximum(alpha - 1.0 / nu, 0.0)
    return math.fsum((excess * beta * u_e.grid.cell_volume).ravel())


class TestForcing:
    @pytest.fixture(scope="class")
    def large_nu_sweep(self):
        # at nu = 0.9 the squared gap exceeds 1/nu on a few samples
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.5, nu_list=(0.9, 0.5),
            initial_condition_id="random_42", min_samples=10,
        )
        return run_sweep(cfg, compute_norms=True)

    def test_nonzero_forcing_matches_oracle(self, large_nu_sweep):
        result = large_nu_sweep
        for nu in result.config.nu_list:
            g = result.forcing[nu]
            expected = [
                forcing_oracle(sn.velocity, se.velocity, nu)
                for sn, se in zip(result.runs[nu].states, result.euler.states)
            ]
            assert len(g) == len(expected)
            for got, want in zip(g, expected):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.count_nonzero(result.forcing[0.9]) == 4
        assert np.array_equal(majorant_problem(result, 0.9, c_emp=1.0).g, result.forcing[0.9])

    def test_paired_pass_derives_each_velocity_once(self, monkeypatch):
        # sweep_f0 configuration: 1 reference + K = 4 viscous runs of N samples
        cfg = ExperimentConfig(
            grid_points=64, horizon=0.5, nu_list=(1e-1, 1e-2, 1e-3, 1e-4),
            initial_condition_id="random_42", min_samples=50,
        )
        derive = FlowState.velocity.fget
        derived = [0]

        def counting(state):
            derived[0] += 1
            return derive(state)

        before_pass = [0]  # derivations by the initial condition and the runs

        def counted(fn):
            def wrapper(*args, **kwargs):
                before = derived[0]
                out = fn(*args, **kwargs)
                before_pass[0] += derived[0] - before
                return out

            return wrapper

        monkeypatch.setattr(FlowState, "velocity", property(counting))
        monkeypatch.setattr(inviscid, "run", counted(inviscid.run))
        monkeypatch.setattr(inviscid, "initial_condition", counted(inviscid.initial_condition))
        result = run_sweep(cfg, compute_norms=False)
        after_sweep = derived[0]
        sweep_majorization(result, c_emp=1.0)
        assert derived[0] == after_sweep  # majorization reads no flow state
        K, N = len(cfg.nu_list), len(result.euler.states)
        assert after_sweep - before_pass[0] == (1 + K) * N
        assert derived[0] == 516


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
            p = majorant_problem(result, nu, c_emp=1.0)
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
        p = majorant_problem(result, nu, c_emp=1.0)
        x_sq = result.gap_curves[nu] ** 2
        report = check_majorization(result.euler.sample_times, x_sq, p, tol=0.05)
        assert report.passed
