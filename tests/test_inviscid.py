"""Viscosity sweeps, rate fitting, majorization coupling."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from loglimit.inviscid import (
    ExperimentConfig,
    GapSeries,
    fit_exponent,
    initial_condition,
    majorant_problem,
    run_sweep,
    sweep_majorization,
    verify_rate,
)
from loglimit import flow, inviscid, osgood
from loglimit.flow import FlowState, gap_l2, run, sup_gap_sq_bound
from loglimit.grid import GridSpec
from loglimit.osgood import check_majorization
from conftest import assert_no_child_left
from reference import longdouble_state_gap, velocity_gap_l2


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

    def test_nan_viscosity_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nu_list"):
            ExperimentConfig(32, 0.5, nu_list=(1e-1, math.nan, 1e-3))

    def test_unknown_ic_rejected(self):
        with pytest.raises(ValueError, match="unknown initial"):
            initial_condition(GridSpec(32), "nonsense")

    @pytest.mark.parametrize("ic_id", ["random", "random_", "random_x", "random_-1"])
    def test_random_ic_needs_a_seed(self, ic_id):
        with pytest.raises(ValueError, match="unknown initial"):
            initial_condition(GridSpec(32), ic_id)


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

    def test_runs_must_share_sample_times(self, monkeypatch, cpus):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
            initial_condition_id="taylor_green", min_samples=10,
        )
        member = inviscid._sweep_member

        def shifted_member(cfg, u0, nu):
            res = member(cfg, u0, nu)
            if nu == 1e-2:
                times = res.series.times + 1e-9
                return dataclasses.replace(res, series=dataclasses.replace(res.series, times=times))
            return res

        cpus(1)  # in-process
        monkeypatch.setattr(inviscid, "_sweep_member", shifted_member)
        with pytest.raises(ValueError, match="sample times"):
            run_sweep(cfg, compute_norms=False)

    @pytest.mark.parametrize("blown", [0, 1])
    def test_blow_up_aborts_sweep(self, blown, monkeypatch, tmp_path):
        # the largest nu runs in the sweep's first map, the others in its second
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
            initial_condition_id="taylor_green", min_samples=10,
            output_dir=str(tmp_path / "out"),
        )
        log = tmp_path / "started"  # a file, as the runs may start in child processes
        log.touch()

        def blowing_run(u0, solver_cfg):
            with open(log, "a") as fh:
                fh.write(f"{solver_cfg.nu!r}\n")
            res = run(u0, solver_cfg)
            if solver_cfg.nu == cfg.nu_list[blown]:
                return dataclasses.replace(res, blow_up=True)
            return res

        monkeypatch.setattr(inviscid, "run", blowing_run)
        result = run_sweep(cfg, compute_norms=False)
        completed = list(cfg.nu_list[:blown])
        assert result.aborted
        lines = log.read_text().split()
        started = {float(line) for line in lines}
        assert len(started) == len(lines)  # no run started twice
        # the runs up to the blown one; the later ones may have run as well
        assert {0.0, *cfg.nu_list[: blown + 1]} <= started <= {0.0, *cfg.nu_list}
        assert list(result.runs) == list(cfg.nu_list[: blown + 1])
        assert list(result.gap_curves) == completed
        assert list(result.forcing) == completed
        assert list(result.series.nu) == completed
        assert len(result.series.sup_gap) == blown
        assert list(sweep_majorization(result, c_emp=1.0)) == completed
        kept = {inviscid.run_label(nu) for nu in result.runs}
        out = tmp_path / "out"
        assert {p.name for p in out.iterdir()} == {"gaps.csv", "euler", *kept}
        assert all((out / name).is_dir() for name in {"euler", *kept})

    @pytest.mark.parametrize("k", [1, 2])
    def test_blown_reference_raises_before_any_f0_scan(self, k, monkeypatch, tmp_path, cpus):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2),
            initial_condition_id="taylor_green", min_samples=10,
            output_dir=str(tmp_path / "out"),
        )
        log = tmp_path / "scans"  # a file, as the scans may run in child processes
        log.touch()
        gradient_bmo = flow.gradient_bmo

        def counting_bmo(state):
            with open(log, "a") as fh:
                fh.write(f"{state.time!r}\n")
            return gradient_bmo(state)

        def blowing_run(u0, solver_cfg):
            res = run(u0, solver_cfg)
            return dataclasses.replace(res, blow_up=solver_cfg.nu == 0.0)

        cpus(k)
        monkeypatch.setattr(flow, "gradient_bmo", counting_bmo)
        result = run_sweep(dataclasses.replace(cfg, output_dir=None))
        assert len(log.read_text().split()) == len(result.euler.states)  # the count sees every scan
        log.write_text("")
        monkeypatch.setattr(inviscid, "run", blowing_run)
        with pytest.raises(RuntimeError, match="reference run blew up"):
            run_sweep(cfg)
        assert log.read_text() == ""
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

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


class TestGapSeries:
    def _series(self, nu=(1e-1, 1e-2), sup=(0.1, 0.01), M=1.0, theory=0.5):
        return GapSeries(nu=np.asarray(nu, dtype=float), sup_gap=np.asarray(sup, dtype=float),
                         M=M, theory_exponent=theory)

    @pytest.mark.parametrize("kwargs", [
        dict(nu=(), sup=()),  # a sweep whose first viscous run blew up
        dict(theory=0.0),  # exp(-2 M T) underflows once M T > ~372
        dict(theory=1.0, M=0.0),
        dict(sup=(0.0, 0.0)),
    ], ids=["empty", "theory-underflow", "theory-one", "zero-gaps"])
    def test_valid_edges(self, kwargs):
        self._series(**kwargs)

    def test_fitted_exponent_is_derived(self):
        nu, sup = np.array([1e-1, 1e-2, 1e-3]), np.array([0.3, 0.05, 0.004])
        assert self._series(nu, sup).fitted_exponent == fit_exponent(nu, sup)
        assert self._series().fitted_exponent == pytest.approx(1.0, abs=1e-12)
        assert self._series(sup=(0.0, 0.0)).fitted_exponent is None
        with pytest.raises(TypeError, match="fitted_exponent"):
            GapSeries(nu=nu, sup_gap=sup, M=1.0, theory_exponent=0.5, fitted_exponent=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(nu=(1e-2, 1e-1)), "strictly decrease"),
        (dict(nu=(1e-2, 1e-2)), "strictly decrease"),
        (dict(nu=(1.0, 1e-2)), "(0, 1)"),
        (dict(nu=(1e-1, 0.0)), "(0, 1)"),
        (dict(nu=(1e-1, math.nan)), "(0, 1)"),
        (dict(sup=(0.1, math.nan)), "sup gap"),
        (dict(sup=(0.1, math.inf)), "sup gap"),
        (dict(sup=(0.1, -0.01)), "sup gap"),
        (dict(sup=(0.1,)), "sup gap"),
        (dict(M=math.nan), "M must be"),
        (dict(M=math.inf), "M must be"),
        (dict(M=-1.0), "M must be"),
        (dict(theory=math.nan), "theory exponent"),
        (dict(theory=1.5), "theory exponent"),
        (dict(theory=-0.1), "theory exponent"),
    ], ids=["increasing", "repeated", "nu-one", "nu-zero", "nu-nan", "gap-nan", "gap-inf",
            "gap-negative", "gap-short", "M-nan", "M-inf", "M-negative", "theory-nan",
            "theory-above-one", "theory-negative"])
    def test_invalid_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self._series(**kwargs)


class TestVerifyRate:
    def _series(self, nu, sup, theory):
        return GapSeries(nu=np.asarray(nu, dtype=float), sup_gap=np.asarray(sup, dtype=float),
                         M=1.0, theory_exponent=theory)

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

    @staticmethod
    def _count_derivations(monkeypatch, cfg):
        """The sweep, with the velocities derived in all and in its paired pass."""
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

        # in-process, so that the counters see every call
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(FlowState, "velocity", property(counting))
        monkeypatch.setattr(inviscid, "run", counted(inviscid.run))
        monkeypatch.setattr(inviscid, "initial_condition", counted(inviscid.initial_condition))
        result = run_sweep(cfg, compute_norms=False)
        after_sweep = derived[0]
        sweep_majorization(result, c_emp=1.0)
        assert derived[0] == after_sweep  # majorization reads no flow state
        return result, after_sweep, after_sweep - before_pass[0]

    def test_paired_pass_derives_no_velocity_at_sweep_settings(self, monkeypatch):
        # sweep_f0 configuration: 1 reference + K = 4 viscous runs of N samples
        cfg = ExperimentConfig(
            grid_points=64, horizon=0.5, nu_list=(1e-1, 1e-2, 1e-3, 1e-4),
            initial_condition_id="random_42", min_samples=50,
        )
        result, derived, in_pass = self._count_derivations(monkeypatch, cfg)
        # the forcing bound holds at every sample, so the pass derives none;
        # N + 1 in each run (the CFL step too), and 1 in the sweep's one
        # random_band_velocity initial condition
        assert in_pass == 0
        N = len(result.euler.states)
        assert derived == (1 + len(cfg.nu_list)) * (N + 1) + 1 == 261

    def test_paired_pass_derives_one_velocity_where_the_bound_fails(self, monkeypatch):
        cfg = ExperimentConfig(
            grid_points=32, horizon=0.5, nu_list=(0.9, 0.5),
            initial_condition_id="random_42", min_samples=10,
        )
        result, _, in_pass = self._count_derivations(monkeypatch, cfg)
        failing = {nu: sum(sup_gap_sq_bound(s, e) > 1.0 / nu
                           for s, e in zip(result.runs[nu].states, result.euler.states))
                   for nu in cfg.nu_list}
        assert np.count_nonzero(result.forcing[0.9]) == 4
        assert failing[0.9] >= 4
        # the gap state's velocity, once per failing sample
        assert in_pass == sum(failing.values())


@pytest.fixture(scope="module")
def f0_sweep():
    """A sweep at the sweep_f0 settings, without the f0 scans."""
    cfg = ExperimentConfig(
        grid_points=64, horizon=0.5, nu_list=(1e-1, 1e-2, 1e-3, 1e-4),
        initial_condition_id="random_42", min_samples=50,
    )
    return run_sweep(cfg, compute_norms=False)


class TestStateGap:
    def test_gap_curves_match_longdouble_oracle(self, f0_sweep):
        # every sample, among them nu = 1e-4 at t = 0.01, where the gap is
        # about 4.4e-5 and the majorization verdicts are decided
        assert f0_sweep.euler.states[1].time <= 0.01
        assert 0 < f0_sweep.gap_curves[1e-4][1] < 1e-4
        for nu, curve in f0_sweep.gap_curves.items():
            for i, (sn, se) in enumerate(zip(f0_sweep.runs[nu].states, f0_sweep.euler.states)):
                want = longdouble_state_gap(sn.omega_hat, se.omega_hat)
                assert curve[i] == gap_l2(sn, se)
                assert abs(curve[i] - want) <= 1e-15 * want, (nu, i)

    def test_gap_curves_match_velocity_gap(self, f0_sweep):
        for nu, curve in f0_sweep.gap_curves.items():
            for i, (sn, se) in enumerate(zip(f0_sweep.runs[nu].states, f0_sweep.euler.states)):
                if curve[i] > 1e-3:
                    want = velocity_gap_l2(sn.velocity, se.velocity)
                    assert curve[i] == pytest.approx(want, rel=1e-12)


class TestSideBySide:
    """run_sweep and sweep_majorization with forked children and in-process."""

    CFG = dict(grid_points=32, horizon=0.2, nu_list=(1e-1, 1e-2, 1e-3),
               initial_condition_id="random_42", min_samples=10)

    def _sweep(self, outdir):
        result = run_sweep(ExperimentConfig(**self.CFG, output_dir=str(outdir)))
        return result, sweep_majorization(result, c_emp=1.0)

    def test_pooled_equals_in_process(self, tmp_path, monkeypatch, cpus):
        log = tmp_path / "pids"  # the process and viscosity of every run
        log.touch()

        def logging_run(u0, solver_cfg):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {solver_cfg.nu}\n")
            return run(u0, solver_cfg)

        def runs_by_pid():
            runs = [line.split() for line in log.read_text().splitlines()]
            log.write_text("")
            return {pid: {float(nu) for p, nu in runs if p == pid} for pid, _ in runs}

        caller = str(os.getpid())
        first_nu = self.CFG["nu_list"][0]
        monkeypatch.setattr(inviscid, "run", logging_run)
        cpus(2)
        pooled, pooled_reports = self._sweep(tmp_path / "pooled")
        placed = runs_by_pid()
        # the reference run in the caller; each of the sweep's two maps
        # forks its own child, and the first map runs only the largest nu
        assert 2 <= len(placed) <= 3 and 0.0 in placed[caller]
        assert all(nus == {first_nu} or first_nu not in nus
                   for pid, nus in placed.items() if pid != caller)
        cpus(1)
        serial, serial_reports = self._sweep(tmp_path / "serial")
        assert runs_by_pid() == {caller: {0.0, *self.CFG["nu_list"]}}

        nus = self.CFG["nu_list"]
        assert pooled_reports == serial_reports
        assert list(serial_reports) == list(nus)
        pooled_runs = (pooled.euler, *pooled.runs.values())
        for a, b in zip(pooled_runs, (serial.euler, *serial.runs.values())):
            for field in ("times", "f0", "g0"):
                assert np.array_equal(getattr(a.series, field), getattr(b.series, field))
        for nu in nus:
            assert np.array_equal(pooled.gap_curves[nu], serial.gap_curves[nu])
            assert np.array_equal(pooled.forcing[nu], serial.forcing[nu])
        assert np.array_equal(pooled.series.sup_gap, serial.series.sup_gap)
        assert (pooled.series.M, pooled.series.fitted_exponent) == (
            serial.series.M, serial.series.fitted_exponent)
        files = sorted(p.relative_to(tmp_path / "serial")
                       for p in (tmp_path / "serial").rglob("*") if p.is_file())
        assert len(files) == 1 + 2 * (1 + len(nus))  # gaps.csv, two files a run
        for rel in files:
            pooled_bytes = (tmp_path / "pooled" / rel).read_bytes()
            assert pooled_bytes == (tmp_path / "serial" / rel).read_bytes(), rel

    @pytest.mark.parametrize("k", [1, 2])
    def test_f0_does_not_depend_on_placement(self, cpus, k):
        cpus(k)
        euler = run_sweep(ExperimentConfig(**self.CFG)).euler
        assert len(euler.series.f0) == len(euler.states) == 11
        for f0, state in zip(euler.series.f0, euler.states):
            assert f0 == flow.gradient_bmo(state)

    def test_no_process_left(self, cpus):
        cpus(2)
        result = run_sweep(ExperimentConfig(**self.CFG))
        assert_no_child_left()
        sweep_majorization(result, c_emp=1.0)
        assert_no_child_left()

    @pytest.mark.parametrize("k", [1, 2])
    def test_member_error_reaches_caller(self, monkeypatch, cpus, k):
        cpus(k)

        def failing_run(u0, solver_cfg):
            if solver_cfg.nu == 1e-2:
                raise ArithmeticError(f"member at nu = {solver_cfg.nu} failed")
            return run(u0, solver_cfg)

        def failing_check(times, x_squared, problem, tol):
            if problem.nu in (1e-2, 1e-3):  # the first failure in nu order reaches the caller
                raise LookupError(f"majorant at nu = {problem.nu} failed")
            return check_majorization(times, x_squared, problem, tol=tol)

        cfg = ExperimentConfig(**self.CFG)
        result = run_sweep(cfg, compute_norms=False)
        monkeypatch.setattr(inviscid, "run", failing_run)
        with pytest.raises(ArithmeticError, match=r"^member at nu = 0\.01 failed$") as err:
            run_sweep(cfg, compute_norms=False)
        assert err.type is ArithmeticError
        assert_no_child_left()
        monkeypatch.setattr(inviscid, "check_majorization", failing_check)
        with pytest.raises(LookupError, match=r"^majorant at nu = 0\.01 failed$") as err:
            sweep_majorization(result, c_emp=1.0)
        assert err.type is LookupError
        assert_no_child_left()

    def _majorant_work(self, monkeypatch, cpus, c_emp):
        """Per nu: the check's report, the trajectory points of all its
        integrate_majorant calls, and those of one full-horizon integration.
        In-process, as a forked child's calls would not reach the count."""
        cpus(1)
        result = run_sweep(ExperimentConfig(**self.CFG))
        points = dict.fromkeys(self.CFG["nu_list"], 0)
        integrate = osgood.integrate_majorant

        def counting(problem):
            traj = integrate(problem)
            points[problem.nu] += len(traj.times)
            return traj

        monkeypatch.setattr(osgood, "integrate_majorant", counting)
        reports = sweep_majorization(result, c_emp=c_emp)
        monkeypatch.undo()
        return {nu: (rep, points[nu], len(integrate(majorant_problem(result, nu, c_emp)).times))
                for nu, rep in reports.items()}

    def test_majorant_work_is_cut(self, monkeypatch, cpus):
        # a work count, not a timing: at the gate's empirical constant each
        # check integrates the majorant only as far as a sample can still fail
        for rep, points, full in self._majorant_work(monkeypatch, cpus, 5.58).values():
            assert rep.passed and rep.checked_until < self.CFG["horizon"]
            assert 0 < points < 0.5 * full

    def test_majorant_work_bounded_when_cut_fires_late(self, monkeypatch, cpus):
        # at c_emp = 1.0 the cut fires only at t = 0.14 of 0.2, and the
        # growing prefixes converge at a finer step than the full horizon;
        # the check still costs at most twice one full-horizon integration
        for rep, points, full in self._majorant_work(monkeypatch, cpus, 1.0).values():
            assert rep.checked_until == pytest.approx(0.14)
            assert 0 < points <= 2 * full


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
