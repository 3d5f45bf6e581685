"""Duality-inequality trials, the Riesz/Zygmund L1 bound, and corpus scans."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import loglimit.logineq
import loglimit.norms
from loglimit.grid import GridSpec, ScalarField
from loglimit.logineq import (
    CORPUS_BUILDERS,
    duality_ratio,
    dyadic_indicator,
    gaussian_bump,
    log_bracket,
    make_corpus,
    normalized_indicator,
    pairing,
    riesz_l1_chain,
    scan_corpus,
    support_extent,
    truncated_gaussian,
    truncated_log,
    verify_main_inequality,
    verify_zygmund_estimate,
    zygmund_family_scan,
)
from loglimit.norms import bmo_seminorm, lp_norm
from conftest import assert_no_child_left


class TestMainInequality:
    def test_constant_f_is_degenerate(self, grid32):
        f = ScalarField(grid32, 2.5 * np.ones(grid32.shape))
        g = gaussian_bump(grid32, np.pi / 4)
        trial = verify_main_inequality(f, g)
        assert trial.degenerate
        assert trial.ratio is None
        # the pairing collapses to |mean f| * |integral g|
        assert trial.lhs == pytest.approx(2.5 * pairing(ScalarField(grid32, np.ones(grid32.shape)), g), rel=1e-13)

    def test_zero_g_is_degenerate(self, grid32):
        f = truncated_log(grid32)
        trial = verify_main_inequality(f, ScalarField.zeros(grid32))
        assert trial.degenerate
        assert trial.lhs == 0.0

    def test_step_against_shrinking_indicators(self, grid64):
        # the bracket grows like |ln eps| while the ratio stays bounded
        f = ScalarField.from_function(grid64, lambda a, b: np.where(a < np.pi, 1.0, -1.0))
        ratios, brackets = [], []
        for level in range(1, 6):
            g = dyadic_indicator(grid64, level)
            trial = verify_main_inequality(f, g)
            assert not trial.degenerate
            ratios.append(trial.ratio)
            brackets.append(trial.bracket)
        assert all(np.isfinite(r) for r in ratios)
        assert brackets[-1] > brackets[0]  # the log term kicks in as eps -> 0
        assert max(ratios) < 5.0

    def test_log_singularity_refinement_bounded(self):
        # pairing a log singularity with a unit-mass bump at the singular
        # point stays bounded as the cap is refined
        maxima = []
        for n in (32, 64, 128):
            grid = GridSpec(n)
            f = truncated_log(grid)
            center_square = normalized_indicator(grid, 0.1)
            # recenter the bump onto the singularity by rolling values
            shift = n // 2
            g = ScalarField(grid, np.roll(center_square.values, (shift, shift), axis=(0, 1)))
            trial = verify_main_inequality(f, g)
            maxima.append(trial.ratio)
        assert maxima[2] <= maxima[1] * 1.05 + 1e-12
        assert maxima[1] <= maxima[0] * 1.05 + 1e-12

    def test_scaling_sweep_continuous_through_unit_mass(self, grid32):
        # s g crosses ||.||_L1 = 1; the bracket never vanishes and the ratio
        # moves continuously
        f = ScalarField.from_function(grid32, lambda a, b: np.cos(a) * np.cos(b))
        g0 = gaussian_bump(grid32, np.pi / 8)
        l1 = lp_norm(g0, 1)

        def max_jump(points):
            scales = np.geomspace(0.1, 10.0, points) / l1
            ratios = []
            for s in scales:
                trial = verify_main_inequality(f, g0 * s)
                assert not trial.degenerate
                ratios.append(trial.ratio)
            ratios = np.array(ratios)
            assert np.all(np.isfinite(ratios))
            assert ratios.max() < 10.0
            return np.abs(np.diff(ratios)).max()

        # halving the sweep spacing roughly halves the largest jump
        assert max_jump(81) <= 0.65 * max_jump(41)

    def test_bracket_at_unit_mass(self):
        assert log_bracket(1.0, 3.0) == pytest.approx(math.log(4.0))
        assert log_bracket(0.0, 3.0) == 0.0


class TestDualityAndChain:
    def test_duality_layer_bounded_under_refinement(self):
        from loglimit.logineq import duality_ratio

        vals = []
        for n in (32, 64):
            grid = GridSpec(n)
            f = ScalarField.from_function(grid, lambda a, b: np.where(a < np.pi, 1.0, -1.0))
            g = gaussian_bump(grid, np.pi / 8)
            vals.append(duality_ratio(f, g))
        assert vals[1] <= vals[0] * 1.05

    def test_chain_bound_fields(self, grid64):
        for build in (lambda g: gaussian_bump(g, np.pi / 8), truncated_log):
            rec = riesz_l1_chain(build(grid64))
            for axis in (1, 2):
                assert rec[f"lhs_{axis}"] <= max(rec["rhs_factor"], 1e-12) * 2.0

    def test_chain_constant_bounded_under_refinement(self):
        cs = []
        for n in (32, 64, 128):
            rec = riesz_l1_chain(truncated_log(GridSpec(n)))
            cs.append(max(rec["c_1"], rec["c_2"]))
        assert cs[2] <= cs[1] * 1.05
        assert cs[1] <= cs[0] * 1.05


class TestZygmundEstimate:
    def test_zero_field(self, grid32):
        trial = verify_zygmund_estimate(ScalarField.zeros(grid32))
        assert trial.riesz_l1 == (0.0, 0.0)
        assert trial.llogl == 0.0
        assert trial.constant == 0.0
        assert trial.bound is None  # no corpus constant for a single trial

    def test_flat_bump_llogl(self, grid64):
        ind = normalized_indicator(grid64, 1.0)
        measure = 1.0 / float(ind.values.max())
        h = ScalarField(grid64, np.where(ind.values > 0, np.e, 0.0))
        trial = verify_zygmund_estimate(h)
        assert trial.llogl == pytest.approx(np.e * measure, rel=1e-12)
        assert all(v > 0 for v in trial.riesz_l1)

    def test_negative_h_rejected(self, grid32):
        f = ScalarField.from_function(grid32, lambda a, b: np.cos(a))
        with pytest.raises(ValueError, match="nonnegative"):
            verify_zygmund_estimate(f)

    def test_full_support_rejected(self, grid32):
        h = gaussian_bump(grid32, np.pi / 2)  # never exactly zero
        with pytest.raises(ValueError, match="support"):
            verify_zygmund_estimate(h)

    def test_truncated_gaussian_admitted(self, grid64):
        h = truncated_gaussian(grid64, np.pi / 16)
        trial = verify_zygmund_estimate(h)
        assert trial.support <= np.pi**2
        assert trial.bound is None

    def test_scan_bounds_each_trial_by_the_family_constant(self):
        scan = zygmund_family_scan(GridSpec(128))
        c0 = scan["c0"]
        assert c0 == max(t.constant for t in scan["trials"])
        for t in scan["trials"]:
            assert t.bound == c0 * (1.0 + t.llogl)  # C0 + C0 * llogl
            assert max(t.riesz_l1) <= t.bound * (1 + 1e-12)  # equality, to rounding, at C0

    def test_family_grows_log_linearly(self):
        # ||R_k h_N||_L1 grows affinely in ln N for the unit-mass family
        scan = zygmund_family_scan(GridSpec(256))
        trials = scan["trials"]
        x = np.array([math.log(1.0 / t.support) for t in trials])
        y = np.array([t.riesz_l1[0] for t in trials])
        slope, intercept = np.polyfit(x, y, 1)
        residual = y - (slope * x + intercept)
        assert slope > 0.2  # genuine logarithmic growth
        assert np.abs(residual).max() < 0.1 * y.max()  # and a good log-linear fit

    def test_bound_dominates_with_corpus_constant(self):
        scan = zygmund_family_scan(GridSpec(128))
        for t in scan["trials"]:
            assert max(t.riesz_l1) <= t.bound * (1 + 1e-12)

    def test_lambda_scaled_bound(self):
        # the rescaled form lambda + C int h ln+(h/lambda) at lambda = ||h||_L1
        # also dominates, once C is fitted over the family at that lambda and
        # the unit-lambda margin is granted as slack
        from loglimit.norms import zygmund_functional

        grid = GridSpec(128)
        trials = []
        for N in (2, 4, 8, 16, 32, 64):
            h = normalized_indicator(grid, 1.0 / N)
            lam = lp_norm(h, 1)
            z = zygmund_functional(h, lam)
            lhs = max(verify_zygmund_estimate(h).riesz_l1)
            trials.append((lhs, lam, z))
        c_lam = max((lhs - lam) / z for lhs, lam, z in trials if z > 0)
        slack = 1e-12
        for lhs, lam, z in trials:
            assert lhs <= lam + max(c_lam, 0.0) * z + slack

    def test_zygmund_monotone_in_lambda_bound_side(self, grid64):
        # shrinking lambda can only raise the scaled bound side
        from loglimit.norms import zygmund_functional

        h = normalized_indicator(grid64, 1.0 / 8)
        vals = [1.0 + zygmund_functional(h, lam) for lam in (2.0, 1.0, 0.5, 0.25)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_support_extent_periodic(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[30:, :4] = 1.0  # wraps around the corner
        vals[:2, :4] = 1.0
        ext = support_extent(ScalarField(grid32, vals))
        assert ext[0] == pytest.approx(4 * grid32.spacing)
        assert ext[1] == pytest.approx(4 * grid32.spacing)


class TestCorpusScan:
    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one size"):
            scan_corpus(sizes=())

    def test_repeated_size_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            scan_corpus(sizes=(16, 32, 16))

    def test_one_riesz_pass_per_field(self, monkeypatch):
        calls = []
        transform = loglimit.norms.riesz_transform
        monkeypatch.setattr(
            loglimit.norms, "riesz_transform", lambda g, axis: calls.append(axis) or transform(g, axis)
        )
        scan = scan_corpus(sizes=(16,))
        assert len(calls) == 2 * len(CORPUS_BUILDERS)
        monkeypatch.undo()
        # the Hardy norms and the chain derived from that pass are the public functions' bits
        fields = [f for _, _, f in make_corpus(GridSpec(16))]
        chain = [riesz_l1_chain(f)[f"c_{axis}"] for f in fields for axis in (1, 2)]
        assert scan.chain_max_by_size[16] == max(c for c in chain if c is not None)
        dual = [duality_ratio(f, g) for f in fields for g in fields]
        assert scan.duality_max_by_size[16] == max(d for d in dual if d is not None)

    def test_size_below_corpus_minimum_rejected(self):
        with pytest.raises(ValueError, match="at least 16"):
            scan_corpus(sizes=(64, 8))

    def test_one_norm_pair_and_pairing_each(self, monkeypatch):
        calls = {"pairing": 0, "lp_norm": 0}

        def counted(name):
            inner = getattr(loglimit.logineq, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(loglimit.logineq, name, counted(name))
        scan_corpus(sizes=(16,))
        n_fields = len(CORPUS_BUILDERS)
        assert calls == {"pairing": n_fields**2, "lp_norm": 2 * n_fields}  # L1 and Linf per field

    def test_trials_equal_the_public_trial(self):
        sizes = (16, 32)
        scan = scan_corpus(sizes=sizes)
        expected = []
        for n in sizes:
            corpus = make_corpus(GridSpec(n))
            expected += [verify_main_inequality(f, g, fid, gid)
                         for fid, _, f in corpus for gid, _, g in corpus]
        assert list(scan.trials) == expected

    def test_constants_only_corpus_all_degenerate(self, monkeypatch):
        builders = tuple(b for b in CORPUS_BUILDERS if b[1] == "constants")
        monkeypatch.setattr(loglimit.logineq, "CORPUS_BUILDERS", builders)
        scan = scan_corpus(sizes=(16,))
        assert all(t.degenerate for t in scan.trials)
        assert scan.max_ratio == 0.0

    def test_deterministic_bit_for_bit(self, monkeypatch):
        builders = (CORPUS_BUILDERS[3], CORPUS_BUILDERS[1])  # step f, cosine g
        monkeypatch.setattr(loglimit.logineq, "CORPUS_BUILDERS", builders)
        one = scan_corpus(sizes=(64,))
        two = scan_corpus(sizes=(64,))
        r1 = [t.ratio for t in one.trials if t.ratio is not None]
        r2 = [t.ratio for t in two.trials if t.ratio is not None]
        assert r1 == r2

    def test_small_scan_bounded(self):
        scan = scan_corpus(sizes=(16, 32))
        assert math.isfinite(scan.max_ratio)
        assert scan.max_ratio > 0
        assert scan.ratio_slope is not None and scan.ratio_slope <= 0.05
        assert set(scan.max_ratio_by_family) <= {
            "modes", "steps", "indicators", "logs", "gaussians", "nind"
        }

    def test_trials_enumerate_all_pairs(self):
        scan = scan_corpus(sizes=(16,))
        n_fields = len(CORPUS_BUILDERS)
        assert len(scan.trials) == n_fields * n_fields

    def test_csv_output(self, tmp_path):
        scan = scan_corpus(sizes=(16,))
        path = tmp_path / "trials.csv"
        scan.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "f_id,g_id,grid,lhs,bmo_f,l1_g,linf_g,bracket,ratio"
        assert len(lines) == 1 + len(scan.trials)


def _scan_values(scan):
    return (scan.trials, scan.max_ratio, scan.max_ratio_by_size, scan.max_ratio_by_family,
            scan.ratio_slope, scan.duality_max_by_size, scan.duality_slope,
            scan.chain_max_by_size, scan.chain_slope)


class TestCorpusScanSideBySide:
    """scan_corpus's BMO scans in forked children and in-process."""

    def _scan_both(self, cpus, sizes=(16, 32)):
        cpus(1)
        serial = scan_corpus(sizes=sizes)
        cpus(2)
        pooled = scan_corpus(sizes=sizes)
        assert_no_child_left()
        return serial, pooled

    def test_pooled_equals_in_process(self, cpus):
        serial, pooled = self._scan_both(cpus)
        assert _scan_values(pooled) == _scan_values(serial)
        assert len(pooled.trials) == 2 * len(CORPUS_BUILDERS) ** 2

    def test_scans_run_in_workers(self, monkeypatch, cpus, tmp_path):
        log = tmp_path / "pids"  # the process and grid size of every BMO scan
        log.touch()
        bmo = loglimit.logineq.bmo_seminorm

        def logging_bmo(f):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {f.grid.points_per_axis}\n")
            return bmo(f)

        caller = str(os.getpid())
        monkeypatch.setattr(loglimit.logineq, "bmo_seminorm", logging_bmo)
        cpus(2)
        scan_corpus(sizes=(16, 32))
        scans = [line.split() for line in log.read_text().splitlines()]
        assert len(scans) == 2 * len(CORPUS_BUILDERS) and len({pid for pid, _ in scans}) <= 2
        assert scans[[pid for pid, _ in scans].index(caller)][1] == "32"  # the largest size first
        log.write_text("")
        cpus(1)
        scan_corpus(sizes=(16,))
        assert log.read_text().split() == [caller, "16"] * len(CORPUS_BUILDERS)

    def test_zygmund_scan_side_by_side(self, cpus):
        cpus(1)
        serial = zygmund_family_scan(GridSpec(64))
        cpus(2)
        assert zygmund_family_scan(GridSpec(64)) == serial
        assert [t.h_id for t in serial["trials"]] == [f"nind_{2**k}" for k in range(1, 7)]
        assert_no_child_left()

    def test_no_multiprocessing_import(self):
        # the parallel map forks without multiprocessing and its ~6.5 ms import
        code = textwrap.dedent("""
            import os, sys
            os.sched_getaffinity = lambda pid: {0, 1}
            from loglimit.grid import GridSpec
            from loglimit.inviscid import ExperimentConfig, run_sweep
            from loglimit.logineq import scan_corpus, zygmund_family_scan
            scan_corpus((16, 32))
            zygmund_family_scan(GridSpec(64))
            run_sweep(ExperimentConfig(grid_points=16, horizon=0.05, nu_list=(1e-1, 1e-2),
                                       initial_condition_id="taylor_green", min_samples=4))
            print("multiprocessing" in sys.modules)
        """)
        src = os.path.join(os.path.dirname(loglimit.__file__), os.pardir)
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_patched_corpus_reaches_the_workers(self, monkeypatch, cpus):
        # the scans, in the caller and its children, see the corpus the caller patched in
        builders = (CORPUS_BUILDERS[3], CORPUS_BUILDERS[1], CORPUS_BUILDERS[6])
        monkeypatch.setattr(loglimit.logineq, "CORPUS_BUILDERS", builders)
        serial, pooled = self._scan_both(cpus)
        assert _scan_values(pooled) == _scan_values(serial)
        assert [t.f_id for t in pooled.trials[::3]] == ["step_half", "mode_cos1", "log_cap"] * 2
        expected = [bmo_seminorm(build(GridSpec(n))) for n in (16, 32) for _, _, build in builders]
        assert [t.bmo_f for t in pooled.trials[::3]] == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_builder_error_reaches_caller(self, monkeypatch, cpus, k):
        def failing(grid):
            if grid.points_per_axis == 32:
                raise ArithmeticError(f"no field at n = {grid.points_per_axis}")
            return gaussian_bump(grid, 1.0)

        builders = CORPUS_BUILDERS[:2] + (("fails_at_32", "test", failing),) + CORPUS_BUILDERS[2:]
        monkeypatch.setattr(loglimit.logineq, "CORPUS_BUILDERS", builders)
        cpus(k)
        with pytest.raises(ArithmeticError, match=r"^no field at n = 32$") as err:
            scan_corpus(sizes=(16, 32, 64))
        assert err.type is ArithmeticError
        assert_no_child_left()


class TestCorpusMakers:
    def test_corpus_ids_unique_and_fields_valid(self, grid32):
        corpus = make_corpus(grid32)
        ids = [fid for fid, _, _ in corpus]
        assert len(set(ids)) == len(ids) == len(CORPUS_BUILDERS)
        for _, _, fld in corpus:
            assert np.all(np.isfinite(fld.values))

    def test_truncated_log_cap(self, grid32):
        f = truncated_log(grid32)
        assert f.values.max() == pytest.approx(math.log(1 / grid32.spacing))

    def test_normalized_indicator_mass(self, grid64):
        h = normalized_indicator(grid64, 1.0 / 8)
        assert lp_norm(h, 1) == pytest.approx(1.0, rel=1e-12)
